package harness

import (
	"bufio"
	"bytes"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Usage is a reading of the process's resource counters.
type Usage struct {
	Wall  time.Time
	CPU   time.Duration // user + system
	Alloc uint64        // cumulative heap bytes allocated
	GCs   uint32
}

// ReadUsage samples the counters (ReadMemStats briefly stops the world, so
// call it between measured operations, not inside them).
func ReadUsage() Usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return Usage{
		Wall:  time.Now(),
		CPU:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		Alloc: ms.TotalAlloc,
		GCs:   ms.NumGC,
	}
}

// Delta is the difference between two readings.
type Delta struct {
	Wall, CPU time.Duration
	Alloc     uint64
	GCs       uint32
}

// Since returns the resources used from u to now.
func (u Usage) Since() Delta {
	v := ReadUsage()
	return Delta{Wall: v.Wall.Sub(u.Wall), CPU: v.CPU - u.CPU, Alloc: v.Alloc - u.Alloc, GCs: v.GCs - u.GCs}
}

// Add accumulates d into the receiver.
func (d *Delta) Add(e Delta) {
	d.Wall += e.Wall
	d.CPU += e.CPU
	d.Alloc += e.Alloc
	d.GCs += e.GCs
}

// LiveHeapBytes forces a collection and returns the live heap.
func LiveHeapBytes() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// BlockedIn sums, over the block profile, the time goroutines spent blocked
// with fn (a fully qualified name such as "pkg.(*T).Method") on the stack.
// The profile only holds events recorded while runtime.SetBlockProfileRate
// was positive.
func BlockedIn(fn string) time.Duration {
	var buf bytes.Buffer
	if err := pprof.Lookup("block").WriteTo(&buf, 1); err != nil {
		return 0
	}
	return blockedIn(buf.Bytes(), fn)
}

// blockedIn parses the debug=1 text form of the block profile: a
// "cycles/second=" header, then per record a "<cycles> <count> @ pcs" line
// followed by "#" frame lines.
func blockedIn(profile []byte, fn string) time.Duration {
	var (
		hz      float64
		cycles  float64
		counted bool
		total   float64
	)
	sc := bufio.NewScanner(bytes.NewReader(profile))
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "cycles/second="):
			hz, _ = strconv.ParseFloat(strings.TrimPrefix(line, "cycles/second="), 64)
		case strings.HasPrefix(line, "#"):
			if !counted && strings.Contains(line, fn+"+") {
				total += cycles
				counted = true
			}
		case strings.Contains(line, " @ "):
			f := strings.Fields(line)
			cycles, _ = strconv.ParseFloat(f[0], 64)
			counted = false
		}
	}
	if hz <= 0 {
		return 0
	}
	return time.Duration(total / hz * float64(time.Second))
}
