package main

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"stir"
	"stir/internal/core"
	"stir/internal/geocode"
	"stir/internal/geofast"
	"stir/internal/obs"
	"stir/internal/storage"
	"stir/internal/storage/vfs"
	"stir/internal/stream"
	"stir/internal/textnorm"
	"stir/internal/twitter"

	"stir/perfbench/harness"
)

const (
	firehoseUsers = 5200 // stir analyze's default population
	// firehoseCheckpointEvery gives each pass several checkpoints.
	firehoseCheckpointEvery = 500 * time.Millisecond
	// firehoseQueryEvery schedules 50 /v1/groups queries a second: over
	// ~150 admitted users each costs well under a millisecond of CPU, so
	// the queries add samples, not load.
	firehoseQueryEvery = 20 * time.Millisecond
)

// firehose replays the Korean collection through the platform's sample
// stream into one engine wired as `stir stream -geocode-embedded`: tweets
// are posted into twitter.Service, served by twitter.APIServer over
// loopback, decoded by twitter.Client.Stream and ingested by stream.Engine,
// whose profiles come from the same API through ClientLookup.
type firehose struct {
	seed   int64
	ds     *stir.Dataset
	tweets []*twitter.Tweet
	users  []*twitter.User
	grid   *geofast.Grid
	in     inputs
	sys    *firehoseSystem
}

type firehoseSystem struct {
	svc     *twitter.Service
	api     *server
	query   *server
	qclient *http.Client
	eng     *stream.Engine
	store   *storage.Store
	stopRun context.CancelFunc
	runDone chan error
}

func newFirehose(seed int64) (*firehose, error) {
	t := time.Now()
	ds, err := koreanDataset(seed, firehoseUsers)
	if err != nil {
		return nil, err
	}
	f := &firehose{seed: seed, ds: ds}
	f.tweets, f.users = collection(ds)
	f.in = describe(f.users, f.tweets)
	f.in.GenerateS = time.Since(t).Seconds()
	t = time.Now()
	if f.grid, err = geofast.Compile(ds.Gazetteer, geofast.Options{SlackKm: 10}); err != nil {
		return nil, err
	}
	f.in.CompileS = time.Since(t).Seconds()
	return f, f.boot(nil)
}

func (f *firehose) inputs() inputs { return f.in }

func (f *firehose) reference(ctx context.Context) ([]core.UserGrouping, error) {
	return batchReference(ctx, f.ds)
}

// boot brings up a fresh platform holding the population's accounts (no
// tweets: the pass posts them), its API, and a subscribed engine.
func (f *firehose) boot(l *layers) error {
	if f.sys != nil {
		return nil
	}
	s := &firehoseSystem{svc: twitter.NewService()}
	f.sys = s
	for _, u := range f.users {
		nu, err := s.svc.CreateUser(u.ScreenName, u.ProfileLocation, u.Lang, u.CreatedAt)
		if err != nil {
			return err
		}
		if nu.ID != u.ID {
			return fmt.Errorf("firehose: account %d recreated as %d", u.ID, nu.ID)
		}
	}
	reg := obs.NewRegistry()
	var err error
	if s.api, err = serve(twitter.NewAPIServer(s.svc, twitter.ServerOptions{Metrics: reg})); err != nil {
		return err
	}
	client := twitter.NewClient(s.api.url)
	client.HTTP = &http.Client{} // no overall timeout: the stream is long-lived
	client.Metrics = reg
	if s.store, err = storage.Open("ckpt", storage.Options{FS: l.fs(vfs.NewMem(f.seed)), Metrics: reg}); err != nil {
		return err
	}
	gaz := f.ds.Gazetteer
	resolver := l.resolver(geocode.NewEmbeddedResolver(f.grid))
	s.eng, err = stream.New(stream.Config{
		Profiles: l.profileFunc(stream.NewProfileResolver(stream.ClientLookup(client),
			textnorm.NewRefiner(gaz), resolver, gaz)),
		Resolver:       resolver,
		Seed:           f.seed,
		Store:          s.store,
		DedupByTweetID: true,
		Metrics:        reg,
	})
	if err != nil {
		return err
	}
	if s.query, err = serve(s.eng.Handler()); err != nil {
		return err
	}
	s.qclient = &http.Client{Transport: &http.Transport{}}
	runCtx, stop := context.WithCancel(context.Background())
	s.stopRun, s.runDone = stop, make(chan error, 1)
	src := l.source(&stream.ClientSource{Client: client})
	go func() { s.runDone <- s.eng.Run(runCtx, src) }()
	// The sample stream only carries tweets posted after subscription.
	if !waitFor(func() bool { return s.svc.StreamerCount() > 0 }, stallTimeout) {
		return fmt.Errorf("firehose: stream connection never subscribed")
	}
	return nil
}

func (f *firehose) close() {
	s := f.sys
	if s == nil {
		return
	}
	f.sys = nil
	if s.stopRun != nil {
		s.stopRun()
		<-s.runDone
	}
	if s.eng != nil {
		s.eng.Close()
	}
	s.query.close()
	s.api.close()
	if s.qclient != nil {
		s.qclient.CloseIdleConnections()
	}
	if s.store != nil {
		_ = s.store.Close() // in-memory store, discarded with the pass
	}
}

func (f *firehose) pass(ctx context.Context, l *layers, ref []core.UserGrouping, acc *phase) error {
	s := f.sys
	defer f.close()
	root := l.start(harness.Ref{}, "firehose.pass")
	var (
		posted, lost int64
		ckptFailed   int64
		ckpts        int64
		runErr       error
		wait         time.Duration
		queries      []harness.Query
	)
	checkpoint := func() {
		sp := l.start(root.Ref(), "stream.checkpoint")
		dirty := s.eng.DirtyUsers()
		err := s.eng.Checkpoint()
		sp.End()
		ckpts++
		if err != nil {
			ckptFailed++
			return
		}
		if l != nil {
			l.dirtyUsers.Add(int64(dirty))
			l.ckpts.Add(1)
		}
	}
	err := acc.measure(func() error {
		stopQueries := startQueries(ctx, l, firehoseQueryEvery, func(ctx context.Context, ref harness.Ref) error {
			return query(ctx, s.qclient, s.query, ref, nil)
		})
		defer stopQueries()
		// Periodic checkpoints, as stir stream's -checkpoint-every runs them.
		stopCkpt := every(firehoseCheckpointEvery, checkpoint)
		defer stopCkpt()
		for _, t := range f.tweets {
			if posted-s.eng.Ingested() > flowWindow {
				w := time.Now()
				if !waitFor(func() bool { return posted-s.eng.Ingested() <= flowWindow }, stallTimeout) {
					return fmt.Errorf("firehose: delivery stalled %d tweets behind", posted-s.eng.Ingested())
				}
				wait += time.Since(w)
			}
			var pt time.Time
			if l != nil {
				pt = time.Now()
			}
			if _, err := s.svc.PostTweet(t.UserID, t.Text, t.CreatedAt, t.Geo); err != nil {
				return err
			}
			if l != nil {
				l.postNs.Add(int64(time.Since(pt)))
				l.posts.Add(1)
			}
			posted++
		}
		// Every posted tweet must arrive; a delivery that stops progressing
		// for stallTimeout counts the rest as lost.
		for s.eng.Ingested() < posted {
			n := s.eng.Ingested()
			if !waitFor(func() bool { return s.eng.Ingested() > n }, stallTimeout) {
				break
			}
		}
		lost = posted - s.eng.Ingested()
		s.stopRun()
		runErr = <-s.runDone
		s.stopRun = nil
		s.eng.Drain()
		stopCkpt()
		checkpoint()
		queries = stopQueries()
		return nil
	})
	root.End()
	if err != nil {
		return err
	}
	if runErr != nil {
		return fmt.Errorf("firehose: stream: %w", runErr)
	}
	st := s.eng.Stats()
	acc.tweets += posted
	acc.windowWait += wait
	acc.attempted += posted + ckpts
	acc.failed += lost + st.Dropped + ckptFailed
	acc.recordQueries(queries)
	acc.admitted = append(acc.admitted, float64(st.Users))
	acc.liveHeap = append(acc.liveHeap, float64(harness.LiveHeapBytes()))
	if err := harness.CompareGroupings(s.eng.Snapshot().Groupings, ref); err != nil {
		return fmt.Errorf("%w: firehose pass %d: %v", errIncorrect, acc.passes+1, err)
	}
	return nil
}
