package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"stir"
	"stir/internal/geocode"
	"stir/internal/obs"
	"stir/internal/stream"
	"stir/internal/textnorm"
	"stir/internal/twitter"
)

// frameTweets builds n tweets; every third has no geotag.
func frameTweets(n int) []*twitter.Tweet {
	out := make([]*twitter.Tweet, n)
	for i := range out {
		t := &twitter.Tweet{ID: twitter.TweetID(1e12 + i), UserID: twitter.UserID(-i - 7)}
		if i%3 != 0 {
			t.Geo = &twitter.GeoTag{Lat: 37.5 + float64(i)/1e3, Lon: 127 - float64(i)/1e4}
		}
		out[i] = t
	}
	return out
}

// ptrs adapts a decoded slab to the encoder's input.
func ptrs(ts []twitter.Tweet) []*twitter.Tweet {
	out := make([]*twitter.Tweet, len(ts))
	for i := range ts {
		out[i] = &ts[i]
	}
	return out
}

func TestForwardFrameRoundTrip(t *testing.T) {
	in := frameTweets(10)
	in = append(in,
		&twitter.Tweet{ID: 1, UserID: 2, Geo: &twitter.GeoTag{Lat: math.NaN(), Lon: math.Inf(1)}},
		&twitter.Tweet{ID: 3, UserID: 4, Geo: &twitter.GeoTag{Lat: math.Inf(-1), Lon: 0}},
	)
	b := appendFrame(nil, 42, in)
	if len(b) != frameLen(len(in)) {
		t.Fatalf("frame is %d bytes, want %d", len(b), frameLen(len(in)))
	}
	seq, out, err := decodeFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 42 || len(out) != len(in) {
		t.Fatalf("seq %d, %d tweets; want 42, %d", seq, len(out), len(in))
	}
	for i, want := range in {
		got := out[i]
		if got.ID != want.ID || got.UserID != want.UserID || got.HasGeo() != want.HasGeo() {
			t.Fatalf("tweet %d: got %+v, want %+v", i, got, *want)
		}
		if want.HasGeo() && (math.Float64bits(got.Geo.Lat) != math.Float64bits(want.Geo.Lat) ||
			math.Float64bits(got.Geo.Lon) != math.Float64bits(want.Geo.Lon)) {
			t.Fatalf("tweet %d: geotag %v, want bit-identical %v", i, *got.Geo, *want.Geo)
		}
	}
	if again := appendFrame(nil, seq, ptrs(out)); !bytes.Equal(again, b) {
		t.Fatal("re-encoding a decoded frame changed its bytes")
	}
}

// badFrames are the malformed bodies the decoder must refuse.
func badFrames() map[string][]byte {
	one := appendFrame(nil, 9, frameTweets(2)[1:]) // one geo record
	nonGeo := appendFrame(nil, 9, frameTweets(1))  // one geo-less record
	mut := func(b []byte, f func([]byte)) []byte {
		c := append([]byte(nil), b...)
		f(c)
		return c
	}
	return map[string][]byte{
		"empty body":         {},
		"short header":       one[:frameHeaderLen-1],
		"bad version":        mut(one, func(c []byte) { c[0] = 2 }),
		"JSON body":          []byte(`{"seq":1,"tweets":[]}`),
		"truncated record":   one[:len(one)-1],
		"trailing byte":      append(append([]byte(nil), one...), 0),
		"count over length":  mut(one, func(c []byte) { binary.LittleEndian.PutUint32(c[9:], 2) }),
		"count overflow":     mut(one, func(c []byte) { binary.LittleEndian.PutUint32(c[9:], math.MaxUint32) }),
		"bad geo byte":       mut(one, func(c []byte) { c[frameHeaderLen+16] = 2 }),
		"coords without geo": mut(nonGeo, func(c []byte) { c[frameHeaderLen+20] = 1 }),
	}
}

func TestForwardFrameRejectsMalformed(t *testing.T) {
	for name, b := range badFrames() {
		if _, ts, err := decodeFrame(b); !errors.Is(err, errBadFrame) || ts != nil {
			t.Errorf("%s: got %d tweets, err %v; want errBadFrame", name, len(ts), err)
		}
	}
}

func TestForwardFrameEncodeAllocs(t *testing.T) {
	tweets := frameTweets(256)
	buf := make([]byte, 0, frameLen(len(tweets)))
	if n := testing.AllocsPerRun(100, func() {
		buf = appendFrame(buf[:0], 7, tweets)
	}); n != 0 {
		t.Fatalf("encode into a reused buffer: %v allocs, want 0", n)
	}
}

func TestForwardFrameDecodeAllocs(t *testing.T) {
	for _, n := range []int{1, 256, 4096} {
		b := appendFrame(nil, 1, frameTweets(n))
		if got := testing.AllocsPerRun(20, func() {
			if _, _, err := decodeFrame(b); err != nil {
				t.Fatal(err)
			}
		}); got > 3 {
			t.Fatalf("decode of %d tweets: %v allocs, want <= 3", n, got)
		}
	}
}

// zeros is an endless body of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestWorkerIngestRejectsOversizedBody pins the body cap: one byte past the
// largest frame answers 413 and nothing reaches the engine.
func TestWorkerIngestRejectsOversizedBody(t *testing.T) {
	ds := testDataset(t, 40, 71)
	w := startWorker(t, ds, "wo", nil)
	defer w.stop()
	body := io.LimitReader(zeros{}, int64(frameLen(maxFrameTweets))+1)
	resp, err := http.Post(w.srv.URL+"/cluster/v1/ingest", "application/octet-stream", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
	if n := w.eng.Ingested(); n != 0 {
		t.Fatalf("oversized body reached the engine: %d tweets", n)
	}
}

// FuzzForwardFrame holds the decoder to three properties on any input: it
// never panics, an accepted frame allocates slabs sized by the input, and
// every accepted frame re-encodes to exactly the bytes it came from. The
// seed corpus (valid, NaN and malformed frames) is in
// testdata/fuzz/FuzzForwardFrame; `make fuzz` explores from it.
func FuzzForwardFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		seq, ts, err := decodeFrame(b)
		if err != nil {
			if !errors.Is(err, errBadFrame) || ts != nil {
				t.Fatalf("rejection must be errBadFrame with no tweets: %v, %d tweets", err, len(ts))
			}
			return
		}
		if frameLen(len(ts)) != len(b) || cap(ts) != len(ts) {
			t.Fatalf("%d-byte frame decoded to %d tweets (cap %d)", len(b), len(ts), cap(ts))
		}
		if again := appendFrame(nil, seq, ptrs(ts)); !bytes.Equal(again, b) {
			t.Fatalf("encode(decode(x)) != x:\n x  %x\n got %x", b, again)
		}
	})
}

// nonFiniteGeo copies every fifth geotagged tweet with a NaN or infinite
// coordinate, leaving the dataset's own tweets untouched.
func nonFiniteGeo(tweets []*twitter.Tweet) (out []*twitter.Tweet, bad map[twitter.UserID]bool) {
	tags := []twitter.GeoTag{
		{Lat: math.NaN(), Lon: 127},
		{Lat: 37.5, Lon: math.Inf(1)},
		{Lat: math.Inf(-1), Lon: math.Inf(-1)},
		{Lat: math.NaN(), Lon: math.NaN()},
	}
	bad = make(map[twitter.UserID]bool)
	geo := 0
	for _, tw := range tweets {
		if tw.HasGeo() {
			if geo%5 == 0 {
				c := *tw
				tag := tags[geo/5%len(tags)]
				c.Geo = &tag
				bad[c.UserID] = true
				tw = &c
			}
			geo++
		}
		out = append(out, tw)
	}
	return out, bad
}

// embeddedEngine is a worker engine wired as `stir worker
// -geocode-embedded`: geofast resolves every tweet.
func embeddedEngine(t testing.TB, ds *stir.Dataset, resolver *geocode.EmbeddedResolver) *stream.Engine {
	t.Helper()
	eng, err := stream.New(stream.Config{
		Profiles: stream.NewProfileResolver(stream.ServiceLookup(ds.Service),
			textnorm.NewRefiner(ds.Gazetteer), resolver, ds.Gazetteer),
		Resolver:       resolver,
		DedupByTweetID: true,
		Metrics:        obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestRoutedNonFiniteGeotags routes tweets whose geotags are NaN or ±Inf.
// They cross the hop like any other (every tweet forwarded, no worker
// marked down), geofast resolves them as no-match on the workers, and the
// routed groupings are byte-identical to one engine fed the same stream.
func TestRoutedNonFiniteGeotags(t *testing.T) {
	ds := testDataset(t, 300, 67)
	tweets, bad := nonFiniteGeo(allTweets(ds))
	resolver, err := stream.NewEmbeddedResolver(ds.Gazetteer, 10)
	if err != nil {
		t.Fatal(err)
	}

	ref := embeddedEngine(t, ds, resolver)
	defer ref.Close()
	for _, tw := range tweets {
		ref.Ingest(tw)
	}
	ref.Drain()
	want := ref.Groupings()
	hit := false
	for _, g := range want {
		hit = hit || bad[twitter.UserID(g.UserID)]
	}
	if !hit || ref.Stats().GeocodeFailures == 0 {
		t.Fatal("no admitted user carries a non-finite geotag: the test proves nothing")
	}

	r := testRouter(t, obs.NewRegistry(), nil)
	var engines []*stream.Engine
	for _, name := range []string{"w1", "w2"} {
		eng := embeddedEngine(t, ds, resolver)
		srv := httptest.NewServer(NewWorker(name, eng, obs.NewRegistry()).Handler())
		defer func() { srv.Close(); eng.Close() }()
		join(t, r, &testWorker{name: name, eng: eng, srv: srv})
		engines = append(engines, eng)
	}
	feed(t, r, tweets, 64)
	for _, m := range r.Members().Members {
		if !m.Up {
			t.Fatalf("worker %s marked down by a non-finite geotag", m.Name)
		}
	}
	got, errs := r.Groupings(context.Background())
	if len(errs) > 0 {
		t.Fatalf("gather errors: %+v", errs)
	}
	if g, w := mustJSON(t, got), mustJSON(t, want); !bytes.Equal(g, w) {
		t.Fatalf("routed groupings diverge from one engine: %d vs %d users", len(got), len(want))
	}
	var failures int64
	for _, eng := range engines {
		failures += eng.Stats().GeocodeFailures
	}
	if w := ref.Stats().GeocodeFailures; failures != w {
		t.Fatalf("workers counted %d geocode failures, one engine %d", failures, w)
	}
}
