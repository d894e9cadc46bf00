package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"stir"
	"stir/internal/admin"
	"stir/internal/core"
	"stir/internal/pipeline"
	"stir/internal/synth"
	"stir/internal/twitter"

	"stir/perfbench/harness"
)

const (
	// setupRepeats is how many times a run sets up; setup_s is the median.
	setupRepeats = 3
	// minQueries keeps a run going until p90 has ten samples beyond it.
	minQueries = 100
	// flowWindow is stir stream's posted-minus-ingested replay window.
	flowWindow = 256
	// stallTimeout bounds how long a pass waits for delivery to progress
	// before it counts the missing tweets as lost.
	stallTimeout = 10 * time.Second
)

// bench is one workload's system under test. Each measured pass runs on a
// freshly booted system, so every pass starts from the same empty state and
// its output can be checked against the same reference.
type bench interface {
	// boot brings up the system the next pass runs on, unless one is up
	// already. It is never inside a pass's timed window; the first boot is
	// part of set-up.
	boot(l *layers) error
	// pass runs one measured pass on the booted system, checks its output
	// against ref, and tears the system down.
	pass(ctx context.Context, l *layers, ref []core.UserGrouping, acc *phase) error
	// reference computes the batch pipeline's groupings over the inputs.
	reference(ctx context.Context) ([]core.UserGrouping, error)
	// inputs describes the generated inputs, for the record.
	inputs() inputs
	// close releases whatever is booted.
	close()
}

// inputs are the generated workload's properties.
type inputs struct {
	Users, Tweets, GeoTweets int
	GeoShare                 float64
	// GenerateS and CompileS time the set-up's generation and geofast
	// compile.
	GenerateS, CompileS float64
}

// phase accumulates one measured phase across its passes.
type phase struct {
	use         harness.Delta // summed over the passes' timed windows
	tweets      int64
	passes      int
	attempted   int64
	failed      int64
	queries     []harness.Query
	liveHeap    []float64 // bytes, one per pass that reads it
	rates       []float64 // tweets/s, one per pass
	cpuPerTweet []float64 // ns, one per pass
	admitted    []float64 // admitted users, one per pass
	windowWait  time.Duration
}

// runPhases alternates passes between arms, each nil (untraced) or a set of
// traced seams, until every arm has measured at least seconds of passes and
// minQueries queries. Alternating keeps host noise from favouring one arm.
// blockedIngest turns the block profile on for traced passes.
func runPhases(ctx context.Context, b bench, ref []core.UserGrouping, seconds time.Duration, blockedIngest bool, arms ...*layers) ([]*phase, error) {
	accs := make([]*phase, len(arms))
	for i := range accs {
		accs[i] = &phase{}
	}
	// One unrecorded pass first: the runtime maps its heap, the GC pacer
	// learns the pass's allocation rate and lazy initialisation runs before
	// anything is timed.
	if err := b.boot(nil); err != nil {
		return accs, err
	}
	if err := b.pass(ctx, nil, ref, &phase{}); err != nil {
		return accs, err
	}
	runtime.GC()
	for {
		ran := false
		for i, l := range arms {
			acc := accs[i]
			if acc.use.Wall >= seconds && len(acc.queries) >= minQueries {
				continue
			}
			ran = true
			if err := b.boot(l); err != nil {
				return accs, err
			}
			if l != nil && blockedIngest {
				runtime.SetBlockProfileRate(1)
			}
			use, tweets := acc.use, acc.tweets
			err := b.pass(ctx, l, ref, acc)
			runtime.SetBlockProfileRate(0)
			if err != nil {
				return accs, err
			}
			acc.passes++
			n := float64(acc.tweets - tweets)
			acc.rates = append(acc.rates, n/(acc.use.Wall-use.Wall).Seconds())
			acc.cpuPerTweet = append(acc.cpuPerTweet, float64(acc.use.CPU-use.CPU)/n)
		}
		if !ran {
			return accs, nil
		}
	}
}

// measure brackets one pass's timed window. A pass that reads the live
// heap forces a collection after its window, so the next window starts from
// a collected heap.
func (acc *phase) measure(fn func() error) error {
	u := harness.ReadUsage()
	err := fn()
	acc.use.Add(u.Since())
	return err
}

// recordQueries adds a pass's queries to the phase and counts failures.
func (acc *phase) recordQueries(qs []harness.Query) {
	acc.queries = append(acc.queries, qs...)
	acc.attempted += int64(len(qs))
	for _, q := range qs {
		if q.Err != nil {
			acc.failed++
		}
	}
}

// latencies returns the queries' due-to-answer times in milliseconds.
func (acc *phase) latencies() []float64 {
	out := make([]float64, len(acc.queries))
	for i, q := range acc.queries {
		out[i] = float64(q.Latency()) / 1e6
	}
	return out
}

// lateness returns how late each query was sent, in milliseconds.
func (acc *phase) lateness() []float64 {
	out := make([]float64, len(acc.queries))
	for i, q := range acc.queries {
		out[i] = float64(q.Late()) / 1e6
	}
	return out
}

// koreanDataset generates the Korean preset (stir analyze's default input).
func koreanDataset(seed int64, users int) (*stir.Dataset, error) {
	return stir.NewKoreanDataset(stir.DatasetOptions{Seed: seed, Users: users})
}

// geoDenseDataset generates the geo-dense variant of the Korean preset:
// every tweet carries GPS and nine profiles in ten name a district.
func geoDenseDataset(seed int64, users int, tweetsPerUser float64) (*stir.Dataset, error) {
	gaz, err := admin.NewKoreaGazetteer()
	if err != nil {
		return nil, err
	}
	cfg := synth.KoreanConfig(seed, users, gaz)
	cfg.Profiles = synth.ProfileMix{
		Empty:        0.04,
		WellDefined:  0.90,
		ExactGPS:     0.005,
		Vague:        0.02,
		Insufficient: 0.02,
		Meaningless:  0.01,
		Ambiguous:    0.005,
	}
	cfg.TweetsPerUserMean = tweetsPerUser
	cfg.EngagedGeoUserFraction = 1
	cfg.CasualGeoUserFraction = 1
	cfg.GeoTweetFraction = 1
	gen, err := synth.New(cfg)
	if err != nil {
		return nil, err
	}
	svc := twitter.NewService()
	pop, err := gen.Populate(svc)
	if err != nil {
		return nil, err
	}
	return &stir.Dataset{Service: svc, Gazetteer: gaz, Population: pop, Kind: "korean-geo-dense"}, nil
}

// collection flattens a dataset into its tweets (service order) and users.
func collection(ds *stir.Dataset) ([]*twitter.Tweet, []*twitter.User) {
	var tweets []*twitter.Tweet
	ds.Service.EachTweet(func(t *twitter.Tweet) bool {
		tweets = append(tweets, t)
		return true
	})
	var users []*twitter.User
	ds.Service.EachUser(func(u *twitter.User) bool {
		users = append(users, u)
		return true
	})
	return tweets, users
}

// describe computes the input properties of a collection.
func describe(users []*twitter.User, tweets []*twitter.Tweet) inputs {
	in := inputs{Users: len(users), Tweets: len(tweets)}
	for _, t := range tweets {
		if t.HasGeo() {
			in.GeoTweets++
		}
	}
	if in.Tweets > 0 {
		in.GeoShare = float64(in.GeoTweets) / float64(in.Tweets)
	}
	return in
}

// batchReference runs the batch pipeline as stir analyze does.
func batchReference(ctx context.Context, ds *stir.Dataset) ([]core.UserGrouping, error) {
	users, tweets := pipeline.CollectFromService(ds.Service)
	res, err := pipeline.New(ds.Gazetteer, 10).Run(ctx, users, tweets)
	if err != nil {
		return nil, err
	}
	return res.Groupings, nil
}

// server is one loopback HTTP listener.
type server struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return s, nil
}

// close stops the listener, drops its connections and waits for Serve.
func (s *server) close() {
	if s == nil {
		return
	}
	_ = s.srv.Close() // only reports listener close errors, nothing to act on
	<-s.done
}

// query sends GET /v1/groups to a listener and decodes a 200 answer into
// out (when non-nil).
func query(ctx context.Context, c *http.Client, s *server, ref harness.Ref, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/v1/groups", nil)
	if err != nil {
		return err
	}
	harness.Inject(req.Header, ref)
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /v1/groups: status %d", resp.StatusCode)
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// waitFor polls cond every millisecond until it holds or timeout passes.
func waitFor(cond func() bool, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// errIncorrect marks a correctness-gate failure.
var errIncorrect = errors.New("output differs from the batch reference")

// startQueries runs an open-loop querier from now on, each query a "query"
// span under which do runs. The returned stop ends the schedule, waits for
// the last answer and returns the queries; it may be called more than once.
func startQueries(ctx context.Context, l *layers, every time.Duration, do func(context.Context, harness.Ref) error) (stop func() []harness.Query) {
	ql := harness.NewOpenLoop(every, func(ctx context.Context) error {
		sp := l.start(harness.Ref{}, "query")
		defer sp.End()
		return do(ctx, sp.Ref())
	})
	start := time.Now()
	done := make(chan []harness.Query, 1)
	go func() { done <- ql.Run(ctx, start) }()
	var (
		once sync.Once
		qs   []harness.Query
	)
	return func() []harness.Query {
		once.Do(func() {
			ql.Stop(time.Now())
			qs = <-done
		})
		return qs
	}
}

// every runs fn on a ticker until the returned stop is called; stop waits
// for a running fn to finish and may be called more than once.
func every(d time.Duration, fn func()) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(d)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				fn()
			case <-quit:
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(quit) })
		<-done
	}
}
