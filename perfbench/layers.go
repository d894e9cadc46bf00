package main

import (
	"context"
	"errors"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"stir/internal/core"
	"stir/internal/geo"
	"stir/internal/geocode"
	"stir/internal/storage/vfs"
	"stir/internal/stream"
	"stir/internal/twitter"

	"stir/perfbench/harness"
)

// layers counts work at the seams a traced run wraps. Every wrapper below
// is installed only when tracing, so untraced runs execute the program
// exactly as its commands wire it.
type layers struct {
	rec *harness.Recorder

	postNs, posts        atomic.Int64 // twitter.Service.PostTweet
	readGapNs, delivered atomic.Int64 // between Client.Stream callbacks
	ingestNs             atomic.Int64 // inside Engine.Ingest (via Source)
	profileNs, profiles  atomic.Int64 // ProfileFunc
	reverseNs, reverses  atomic.Int64 // geocode.Resolver.Reverse
	noMatch              atomic.Int64
	bytesWritten, syncs  atomic.Int64 // vfs.FS
	forwardBytes         atomic.Int64 // router → worker ingest bodies
	scatterBytes         atomic.Int64 // worker → router groupings bodies
	dirtyUsers, ckpts    atomic.Int64 // users each checkpoint wrote
}

// timedResolver wraps a geocode.Resolver with call counting and timing.
type timedResolver struct {
	inner geocode.Resolver
	l     *layers
}

func (r timedResolver) Reverse(ctx context.Context, p geo.Point) (geocode.Location, error) {
	t := time.Now()
	loc, err := r.inner.Reverse(ctx, p)
	r.l.reverseNs.Add(int64(time.Since(t)))
	r.l.reverses.Add(1)
	if errors.Is(err, geocode.ErrNoMatch) {
		r.l.noMatch.Add(1)
	}
	return loc, err
}

// resolver returns inner, wrapped when tracing.
func (l *layers) resolver(inner geocode.Resolver) geocode.Resolver {
	if l == nil {
		return inner
	}
	return timedResolver{inner: inner, l: l}
}

// profileFunc returns pf, wrapped with timing when tracing.
func (l *layers) profileFunc(pf stream.ProfileFunc) stream.ProfileFunc {
	if l == nil {
		return pf
	}
	return func(ctx context.Context, id twitter.UserID) (core.Place, bool, error) {
		t := time.Now()
		place, ok, err := pf(ctx, id)
		l.profileNs.Add(int64(time.Since(t)))
		l.profiles.Add(1)
		return place, ok, err
	}
}

// source returns src, wrapped when tracing so the time inside the engine's
// callback (Engine.Ingest) and the gap between callbacks (the client's read
// and decode, plus any wait for input) are measured apart.
func (l *layers) source(src stream.Source) stream.Source {
	if l == nil {
		return src
	}
	return timedSource{inner: src, l: l}
}

type timedSource struct {
	inner stream.Source
	l     *layers
}

func (s timedSource) Stream(ctx context.Context, fn func(*twitter.Tweet) bool) error {
	last := time.Now()
	return s.inner.Stream(ctx, func(t *twitter.Tweet) bool {
		start := time.Now()
		ok := fn(t)
		end := time.Now()
		s.l.readGapNs.Add(int64(start.Sub(last)))
		s.l.delivered.Add(1)
		s.l.ingestNs.Add(int64(end.Sub(start)))
		last = end
		return ok
	})
}

// fs returns fsys, wrapped when tracing to count bytes written and syncs.
func (l *layers) fs(fsys vfs.FS) vfs.FS {
	if l == nil {
		return fsys
	}
	return countingFS{FS: fsys, l: l}
}

type countingFS struct {
	vfs.FS
	l *layers
}

func (c countingFS) wrap(f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return countingFile{File: f, l: c.l}, nil
}

func (c countingFS) Create(name string) (vfs.File, error)     { return c.wrap(c.FS.Create(name)) }
func (c countingFS) OpenAppend(name string) (vfs.File, error) { return c.wrap(c.FS.OpenAppend(name)) }
func (c countingFS) Open(name string) (vfs.File, error)       { return c.wrap(c.FS.Open(name)) }

func (c countingFS) SyncDir(dir string) error {
	c.l.syncs.Add(1)
	return c.FS.SyncDir(dir)
}

type countingFile struct {
	vfs.File
	l *layers
}

func (f countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.l.bytesWritten.Add(int64(n))
	return n, err
}

func (f countingFile) Sync() error {
	f.l.syncs.Add(1)
	return f.File.Sync()
}

// transport returns base, wrapped when tracing: each outbound call becomes
// a span under the caller's context span, its Ref rides the request so the
// far side's middleware can parent under it, and body sizes are counted.
// The span ends when the response body reaches EOF, so decoding the reply
// stays in the caller's self time.
func (l *layers) transport(base http.RoundTripper) http.RoundTripper {
	if l == nil {
		return base
	}
	return spanTransport{base: base, l: l}
}

type spanTransport struct {
	base http.RoundTripper
	l    *layers
}

func (t spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	name := "router.call"
	switch req.URL.Path {
	case "/cluster/v1/ingest":
		name = "router.forward"
		t.l.forwardBytes.Add(req.ContentLength)
	case "/cluster/v1/groupings":
		name = "router.scatter"
	case "/cluster/v1/checkpoint":
		name = "router.checkpoint"
	}
	sp := t.l.rec.Start(harness.RefFrom(req.Context()), name)
	req = req.Clone(req.Context())
	harness.Inject(req.Header, sp.Ref())
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		sp.End()
		return nil, err
	}
	var counter *atomic.Int64
	if name == "router.scatter" {
		counter = &t.l.scatterBytes
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, sp: sp, bytes: counter}
	return resp, nil
}

// spanBody ends its span at EOF or Close, whichever comes first.
type spanBody struct {
	io.ReadCloser
	sp    *harness.Open
	bytes *atomic.Int64
	once  sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if b.bytes != nil {
		b.bytes.Add(int64(n))
	}
	if err != nil {
		b.end()
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.end()
	return b.ReadCloser.Close()
}

func (b *spanBody) end() { b.once.Do(func() { b.sp.End() }) }

// handler returns h, wrapped when tracing so each request becomes a span
// named prefix+route under the Ref the caller stamped.
func (l *layers) handler(prefix string, h http.Handler) http.Handler {
	if l == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sp := l.rec.Start(harness.Extract(r.Header), prefix+routeName(r.URL.Path))
		h.ServeHTTP(w, r.WithContext(harness.WithRef(r.Context(), sp.Ref())))
		sp.End()
	})
}

// routeName shortens the paths the benchmark drives to span names.
func routeName(path string) string {
	switch path {
	case "/cluster/v1/ingest":
		return "ingest"
	case "/cluster/v1/groupings":
		return "groupings"
	case "/cluster/v1/checkpoint":
		return "checkpoint"
	case "/v1/groups":
		return "groups"
	}
	return "other"
}

// start opens a span on the recorder (a no-op when untraced).
func (l *layers) start(parent harness.Ref, name string) *harness.Open {
	if l == nil {
		return nil
	}
	return l.rec.Start(parent, name)
}
