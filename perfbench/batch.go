package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"stir"
	"stir/internal/core"
	"stir/internal/obs"
	"stir/internal/pipeline"

	"stir/perfbench/harness"
)

// batchHeapEvery spaces the batch workload's live-heap readings.
const batchHeapEvery = 16

// batch runs the paper reproduction as `stir analyze` does: collect the
// platform's users and tweets, then run the §III pipeline over them. Each
// pass is one analysis, so a pass's latency is the time a user waits for
// the answer, and it stands in for that workload's query latency.
type batch struct {
	seed int64
	ds   *stir.Dataset
	in   inputs
	reg  *obs.Registry

	// Per-pass layer time, read by the per-layer report.
	collectNs, runNs, runResolverNs atomic.Int64
}

func newBatch(seed int64) (*batch, error) {
	t := time.Now()
	ds, err := koreanDataset(seed, firehoseUsers)
	if err != nil {
		return nil, err
	}
	b := &batch{ds: ds, reg: obs.NewRegistry()}
	tweets, users := collection(ds)
	b.in = describe(users, tweets)
	b.in.GenerateS = time.Since(t).Seconds()
	return b, b.boot(nil)
}

func (b *batch) inputs() inputs { return b.in }

func (b *batch) reference(ctx context.Context) ([]core.UserGrouping, error) {
	return batchReference(ctx, b.ds)
}

// boot has nothing to start: each pass builds its pipeline, as each
// `stir analyze` invocation does.
func (b *batch) boot(*layers) error { return nil }

func (b *batch) close() {}

func (b *batch) pass(ctx context.Context, l *layers, ref []core.UserGrouping, acc *phase) error {
	var (
		res        *pipeline.Result
		start, end time.Time
	)
	err := acc.measure(func() error {
		start = time.Now()
		root := l.start(harness.Ref{}, "batch.pass")
		defer root.End()
		sp := l.start(root.Ref(), "pipeline.collect")
		users, tweets := pipeline.CollectFromService(b.ds.Service)
		b.collectNs.Add(int64(sp.End()))
		p := pipeline.New(b.ds.Gazetteer, 10)
		p.Obs = b.reg
		var resolverNs int64
		if l != nil {
			resolverNs = l.reverseNs.Load()
			p.Resolver = l.resolver(p.Resolver)
		}
		sp = l.start(root.Ref(), "pipeline.run")
		var err error
		res, err = p.Run(ctx, users, tweets)
		b.runNs.Add(int64(sp.End()))
		if l != nil {
			b.runResolverNs.Add(l.reverseNs.Load() - resolverNs)
		}
		end = time.Now()
		return err
	})
	if err != nil {
		return err
	}
	acc.tweets += int64(b.in.Tweets)
	acc.recordQueries([]harness.Query{{Due: start, Sent: start, Done: end}})
	acc.admitted = append(acc.admitted, float64(res.Analysis.Users))
	// The forced collection behind a live-heap reading costs a third of a
	// pass here, so only every batchHeapEvery-th pass takes one.
	if acc.passes%batchHeapEvery == 0 {
		acc.liveHeap = append(acc.liveHeap, float64(harness.LiveHeapBytes()))
	}
	if err := harness.CompareGroupings(res.Groupings, ref); err != nil {
		return fmt.Errorf("%w: batch pass %d: %v", errIncorrect, acc.passes+1, err)
	}
	return nil
}
