package harness

import (
	"context"
	"sync"
	"time"
)

// Query is the outcome of one scheduled request.
type Query struct {
	Due, Sent, Done time.Time
	Err             error
}

// Latency is the time from when the query was due to its answer, so it
// includes any wait behind an earlier, slower query.
func (q Query) Latency() time.Duration { return q.Done.Sub(q.Due) }

// Late is how far behind its schedule the generator sent the query.
func (q Query) Late() time.Duration { return q.Sent.Sub(q.Due) }

// OpenLoop issues one query per interval on a fixed schedule, one at a
// time, as a single client connection would. The schedule never slows
// down: a query that falls due while the previous one is outstanding goes
// out as soon as that one returns, and because every query is timed from
// when it was due, a stalled response is charged to the queries scheduled
// behind it instead of vanishing from the record.
type OpenLoop struct {
	interval time.Duration
	do       func(ctx context.Context) error

	once sync.Once
	stop chan struct{}
	end  time.Time // written before stop closes
}

// NewOpenLoop builds a querier that runs do on every tick.
func NewOpenLoop(interval time.Duration, do func(ctx context.Context) error) *OpenLoop {
	return &OpenLoop{interval: interval, do: do, stop: make(chan struct{})}
}

// Stop ends the schedule at end: queries due before end are still sent,
// none after. Run returns once the last of them has answered.
func (o *OpenLoop) Stop(end time.Time) {
	o.once.Do(func() {
		o.end = end
		close(o.stop)
	})
}

// Run sends the queries due from start on until Stop or ctx ends, and
// returns them in schedule order.
func (o *OpenLoop) Run(ctx context.Context, start time.Time) []Query {
	var out []Query
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * o.interval)
		if wait := time.Until(due); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-o.stop:
				t.Stop()
			case <-ctx.Done():
				t.Stop()
				return out
			}
		}
		select {
		case <-o.stop:
			if !due.Before(o.end) {
				return out
			}
		default:
		}
		if ctx.Err() != nil {
			return out
		}
		q := Query{Due: due, Sent: time.Now()}
		q.Err = o.do(ctx)
		q.Done = time.Now()
		out = append(out, q)
	}
}
