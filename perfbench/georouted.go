package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"stir"
	"stir/internal/cluster"
	"stir/internal/core"
	"stir/internal/geocode"
	"stir/internal/geofast"
	"stir/internal/logx"
	"stir/internal/obs"
	"stir/internal/storage"
	"stir/internal/storage/vfs"
	"stir/internal/stream"
	"stir/internal/textnorm"
	"stir/internal/twitter"

	"stir/perfbench/harness"
)

// The geo-dense collection keeps ~6.6k admitted users and a geo share of
// 1 at ~0.24M tweets, so a pass lasts a few seconds and a run's medians
// cover a dozen passes.
const (
	geoRoutedUsers         = 8100
	geoRoutedTweetsPerUser = 30
	geoRoutedWorkers       = 2
	// geoRoutedBatch is stir router's replay chunk (its -forward-batch).
	geoRoutedBatch = cluster.DefaultForwardBatch
	// geoRoutedCheckpointEvery gives each pass several cluster checkpoints.
	geoRoutedCheckpointEvery = time.Second
	// geoRoutedQueryEvery schedules 4 /v1/groups queries a second.
	geoRoutedQueryEvery = 250 * time.Millisecond
)

// geoRouted drives a geo-dense collection through cluster.Router, as
// `stir router -rate 0` replays it, into in-process workers wired as
// `stir worker -geocode-embedded` with one vfs.Mem checkpoint store each,
// while an open-loop client asks the router for /v1/groups.
type geoRouted struct {
	seed   int64
	ds     *stir.Dataset
	tweets []*twitter.Tweet
	grid   *geofast.Grid
	in     inputs
	sys    *geoRoutedSystem
}

type geoRoutedWorker struct {
	eng   *stream.Engine
	store *storage.Store
	srv   *server
}

type geoRoutedSystem struct {
	workers   []*geoRoutedWorker
	transport *http.Transport
	router    *cluster.Router
	front     *server
	qclient   *http.Client
}

func newGeoRouted(seed int64) (*geoRouted, error) {
	t := time.Now()
	ds, err := geoDenseDataset(seed, geoRoutedUsers, geoRoutedTweetsPerUser)
	if err != nil {
		return nil, err
	}
	g := &geoRouted{seed: seed, ds: ds}
	var users []*twitter.User
	g.tweets, users = collection(ds)
	g.in = describe(users, g.tweets)
	g.in.GenerateS = time.Since(t).Seconds()
	t = time.Now()
	// One compiled grid serves both workers: each `stir worker` process
	// compiles its own, identical one.
	if g.grid, err = geofast.Compile(ds.Gazetteer, geofast.Options{SlackKm: 10}); err != nil {
		return nil, err
	}
	g.in.CompileS = time.Since(t).Seconds()
	return g, g.boot(nil)
}

func (g *geoRouted) inputs() inputs { return g.in }

func (g *geoRouted) reference(ctx context.Context) ([]core.UserGrouping, error) {
	return batchReference(ctx, g.ds)
}

// boot brings up fresh workers, a router joined to them, and the router's
// query listener.
func (g *geoRouted) boot(l *layers) error {
	if g.sys != nil {
		return nil
	}
	s := &geoRoutedSystem{transport: &http.Transport{}}
	g.sys = s
	reg := obs.NewRegistry()
	gaz := g.ds.Gazetteer
	for i := 0; i < geoRoutedWorkers; i++ {
		w := &geoRoutedWorker{}
		s.workers = append(s.workers, w)
		var err error
		if w.store, err = storage.Open("ckpt", storage.Options{FS: l.fs(vfs.NewMem(g.seed + int64(i))), Metrics: reg}); err != nil {
			return err
		}
		resolver := l.resolver(geocode.NewEmbeddedResolver(g.grid))
		w.eng, err = stream.New(stream.Config{
			Profiles: l.profileFunc(stream.NewProfileResolver(stream.ServiceLookup(g.ds.Service),
				textnorm.NewRefiner(gaz), resolver, gaz)),
			Resolver:       resolver,
			Seed:           g.seed,
			Store:          w.store,
			DedupByTweetID: true,
			Metrics:        reg,
		})
		if err != nil {
			return err
		}
		name := fmt.Sprintf("w%d", i+1)
		if w.srv, err = serve(l.handler("worker.", cluster.NewWorker(name, w.eng, reg).Handler())); err != nil {
			return err
		}
	}
	s.router = cluster.New(cluster.Options{
		Seed:    g.seed,
		Metrics: reg,
		HTTP:    &http.Client{Transport: l.transport(s.transport)},
		Log:     logx.New(io.Discard, "stir-router"),
	})
	for i, w := range s.workers {
		if err := s.router.AddWorker(context.Background(), fmt.Sprintf("w%d", i+1), w.srv.url); err != nil {
			return err
		}
	}
	var err error
	if s.front, err = serve(l.handler("router.", s.router.Handler())); err != nil {
		return err
	}
	s.qclient = &http.Client{Transport: &http.Transport{}}
	return nil
}

func (g *geoRouted) close() {
	s := g.sys
	if s == nil {
		return
	}
	g.sys = nil
	s.front.close()
	for _, w := range s.workers {
		w.srv.close()
		if w.eng != nil {
			w.eng.Close()
		}
		if w.store != nil {
			_ = w.store.Close() // in-memory store, discarded with the pass
		}
	}
	s.transport.CloseIdleConnections()
	if s.qclient != nil {
		s.qclient.CloseIdleConnections()
	}
}

func (g *geoRouted) pass(ctx context.Context, l *layers, ref []core.UserGrouping, acc *phase) error {
	s := g.sys
	defer g.close()
	var (
		forwarded, sent int64
		ckpts, ckptErrs int64
		queries         []harness.Query
	)
	checkpoint := func() {
		sp := l.start(harness.Ref{}, "cluster.checkpoint_all")
		dirty := 0
		for _, w := range s.workers {
			dirty += w.eng.DirtyUsers()
		}
		errs := s.router.CheckpointAll(harness.WithRef(ctx, sp.Ref()))
		sp.End()
		ckpts++
		ckptErrs += int64(len(errs))
		if l != nil && len(errs) == 0 {
			l.dirtyUsers.Add(int64(dirty))
			l.ckpts.Add(1)
		}
	}
	err := acc.measure(func() error {
		stopQueries := startQueries(ctx, l, geoRoutedQueryEvery, func(ctx context.Context, ref harness.Ref) error {
			var res cluster.GroupsResult
			if err := query(ctx, s.qclient, s.front, ref, &res); err != nil {
				return err
			}
			if res.Partial {
				return fmt.Errorf("groups: partial answer: %+v", res.Errors)
			}
			return nil
		})
		defer stopQueries()
		stopCkpt := every(geoRoutedCheckpointEvery, checkpoint)
		defer stopCkpt()
		for i := 0; i < len(g.tweets); i += geoRoutedBatch {
			chunk := g.tweets[i:min(i+geoRoutedBatch, len(g.tweets))]
			sp := l.start(harness.Ref{}, "cluster.ingest_batch")
			rep := s.router.IngestBatch(harness.WithRef(ctx, sp.Ref()), chunk)
			sp.End()
			sent += int64(len(chunk))
			forwarded += int64(rep.Forwarded)
		}
		for _, w := range s.workers {
			w.eng.Drain()
		}
		stopCkpt()
		checkpoint()
		queries = stopQueries()
		return nil
	})
	if err != nil {
		return err
	}
	admitted := 0
	for _, w := range s.workers {
		st := w.eng.Stats()
		admitted += st.Users
		acc.failed += st.Dropped
	}
	acc.tweets += sent
	acc.attempted += sent + ckpts
	acc.failed += sent - forwarded + ckptErrs
	acc.recordQueries(queries)
	acc.admitted = append(acc.admitted, float64(admitted))
	acc.liveHeap = append(acc.liveHeap, float64(harness.LiveHeapBytes()))
	gs, errs := s.router.Groupings(ctx)
	if len(errs) > 0 {
		return fmt.Errorf("geo-routed: gather groupings: %+v", errs)
	}
	if err := harness.CompareGroupings(gs, ref); err != nil {
		return fmt.Errorf("%w: geo-routed pass %d: %v", errIncorrect, acc.passes+1, err)
	}
	return nil
}
