package harness

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed interval at a layer boundary. The spans of one batch or
// query share Trace; Parent is the ID of the span that caused this one.
type Span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
}

// Ref names a span so another goroutine, or the far side of an HTTP hop,
// can parent under it. The zero Ref means "no parent".
type Ref struct{ Trace, ID uint64 }

// Recorder keeps finished spans in memory until the run ends. A nil
// *Recorder records nothing, so untraced runs take the same code path.
type Recorder struct {
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []Span
}

// NewRecorder returns an empty recorder whose clock starts now.
func NewRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// Open is a started span; End finishes it. A nil *Open is a no-op.
type Open struct {
	r *Recorder
	s Span
}

// Start opens a span under parent, or a new trace when parent is zero.
func (r *Recorder) Start(parent Ref, name string) *Open {
	if r == nil {
		return nil
	}
	id := r.ids.Add(1)
	s := Span{Trace: parent.Trace, ID: id, Parent: parent.ID, Name: name, Start: int64(time.Since(r.t0))}
	if parent.ID == 0 {
		s.Trace, s.Parent = id, 0
	}
	return &Open{r: r, s: s}
}

// Ref returns the span's reference (zero for a nil span).
func (o *Open) Ref() Ref {
	if o == nil {
		return Ref{}
	}
	return Ref{Trace: o.s.Trace, ID: o.s.ID}
}

// End records the span and returns its duration.
func (o *Open) End() time.Duration {
	if o == nil {
		return 0
	}
	o.s.End = int64(time.Since(o.r.t0))
	o.r.mu.Lock()
	o.r.spans = append(o.r.spans, o.s)
	o.r.mu.Unlock()
	return time.Duration(o.s.End - o.s.Start)
}

// Spans returns a copy of the finished spans.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteJSONL writes one span per line.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range r.Spans() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

type refKey struct{}

// WithRef returns ctx carrying ref, for layers that pass a context through.
func WithRef(ctx context.Context, ref Ref) context.Context {
	return context.WithValue(ctx, refKey{}, ref)
}

// RefFrom returns the Ref ctx carries (zero if none).
func RefFrom(ctx context.Context) Ref {
	ref, _ := ctx.Value(refKey{}).(Ref)
	return ref
}

// Header carries a Ref across an HTTP hop.
const Header = "X-Perfbench-Span"

// Inject stamps ref on h (nothing for the zero Ref).
func Inject(h http.Header, ref Ref) {
	if ref.ID != 0 {
		h.Set(Header, strconv.FormatUint(ref.Trace, 10)+"/"+strconv.FormatUint(ref.ID, 10))
	}
}

// Extract reads the Ref Inject stamped (zero if absent or malformed).
func Extract(h http.Header) Ref {
	t, id, ok := strings.Cut(h.Get(Header), "/")
	if !ok {
		return Ref{}
	}
	tv, err1 := strconv.ParseUint(t, 10, 64)
	iv, err2 := strconv.ParseUint(id, 10, 64)
	if err1 != nil || err2 != nil {
		return Ref{}
	}
	return Ref{Trace: tv, ID: iv}
}

// LayerTime aggregates the spans of one name.
type LayerTime struct {
	Count int
	// Total is the summed span duration.
	Total time.Duration
	// Self is Total minus the part of each span's interval that its child
	// spans cover (overlapping children count once).
	Self time.Duration
}

// SelfTimes derives per-name totals and self times from a span set.
func SelfTimes(spans []Span) map[string]LayerTime {
	children := make(map[uint64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]LayerTime)
	for _, s := range spans {
		d := s.End - s.Start
		lt := out[s.Name]
		lt.Count++
		lt.Total += time.Duration(d)
		lt.Self += time.Duration(d - covered(s, children[s.ID]))
		out[s.Name] = lt
	}
	return out
}

// covered returns how much of p's interval the union of kids spans.
func covered(p Span, kids []Span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			sum += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return sum + curHi - curLo
}
