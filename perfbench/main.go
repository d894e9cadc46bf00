// Command perfbench is STIR's end-to-end benchmark. It generates one
// workload from a seed, boots the system the way the stir commands wire it,
// drives it for a fixed time, checks every answer against the batch
// pipeline, and prints the metrics; the last line of its output is one JSON
// object. Build and run it from the repository root:
//
//	bash perfbench/run.sh --workload firehose --seed 1 --seconds 28 --trace 0
//
// Workloads: firehose, geo-routed, batch. --trace 0 prints the end-to-end
// metrics; --trace 1 alternates untraced and traced passes, prints
// the per-layer metrics and the tracing overhead, and writes the traced
// phase's spans under .bench_build/spans/.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"stir/perfbench/harness"
)

// processStart approximates process start: the first set-up is timed from
// here.
var processStart = time.Now()

// runLimit stops a run that hangs well before the 180 s a run may take.
const runLimit = 170 * time.Second

// workloads maps each workload name to its constructor, which generates
// the inputs and boots the system for the first pass.
var workloads = map[string]func(seed int64) (bench, error){
	"firehose":   func(seed int64) (bench, error) { return newFirehose(seed) },
	"geo-routed": func(seed int64) (bench, error) { return newGeoRouted(seed) },
	"batch":      func(seed int64) (bench, error) { return newBatch(seed) },
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: firehose, geo-routed or batch")
	seed := flag.Int64("seed", 1, "workload generation seed")
	seconds := flag.Int("seconds", 28, "length of the measured phase, in seconds")
	traced := flag.Int("trace", 0, "1 runs a traced phase after the untraced one and reports per-layer metrics")
	flag.Parse()
	newBench, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload firehose|geo-routed|batch --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	time.AfterFunc(runLimit-time.Since(processStart), func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded", runLimit)
		os.Exit(1)
	})
	if err := run(*workload, newBench, *seed, time.Duration(*seconds)*time.Second, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, newBench func(int64) (bench, error), seed int64, seconds time.Duration, traced bool) error {
	ctx := context.Background()
	var (
		b                      bench
		setups, gens, compiles []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if b != nil {
			b.close()
			b = nil
			runtime.GC()
		}
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		nb, err := newBench(seed)
		if err != nil {
			if nb != nil {
				nb.close()
			}
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		b = nb
		gens = append(gens, b.inputs().GenerateS)
		compiles = append(compiles, b.inputs().CompileS)
	}
	defer b.close()
	ref, err := b.reference(ctx)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}

	fmt.Printf("perfbench: workload=%s seed=%d seconds=%g trace=%v\n", name, seed, seconds.Seconds(), traced)
	printJSON("host", hostInfo())
	arms := []*layers{nil}
	if traced {
		arms = append(arms, &layers{rec: harness.NewRecorder()})
	}
	// Workers call Engine.Ingest with no seam between; on geo-routed the
	// block profile attributes the time it blocks.
	accs, err := runPhases(ctx, b, ref, seconds, name == "geo-routed", arms...)
	plain := accs[0]
	if err != nil {
		return finish(plain, nil, err)
	}
	in := b.inputs()
	printJSON("inputs", map[string]any{
		"seed": seed, "users": in.Users, "tweets": in.Tweets, "geo_share": in.GeoShare,
		"admitted_users": harness.Median(plain.admitted), "queries_per_run": len(plain.queries),
		"passes": plain.passes, "reference_users": len(ref),
	})
	printQueries(plain)
	e2e := endToEnd(harness.Median(setups), plain)
	printMetrics("end-to-end (untraced)", e2e)
	if !traced {
		return finish(plain, e2e, nil)
	}
	l, tr := arms[1], accs[1]
	path, err := writeSpans(l.rec, name, seed)
	if err != nil {
		return err
	}
	fmt.Println("spans:", path)
	per := perLayer(b, l, plain, tr, harness.Median(gens), harness.Median(compiles))
	printMetrics("per-layer (traced)", per)
	tr.attempted += plain.attempted
	tr.failed += plain.failed
	return finish(tr, per, nil)
}

// finish prints the result line. A correctness failure still prints it,
// with correct=false, and makes the process exit non-zero.
func finish(acc *phase, metrics map[string]metric, err error) error {
	if err != nil && !errors.Is(err, errIncorrect) {
		return err
	}
	res := result{Correct: err == nil, Metrics: metrics}
	if acc != nil {
		res.Attempted, res.Failed = acc.attempted, acc.failed
	}
	if res.Metrics == nil {
		res.Metrics = map[string]metric{}
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		return jerr
	}
	fmt.Println(string(line))
	return err
}

// endToEnd computes the metrics a user of the system sees. Throughput, CPU
// and heap are medians over the phase's passes; query latencies pool every
// query of the phase.
func endToEnd(setupS float64, acc *phase) map[string]metric {
	lat := acc.latencies()
	return map[string]metric{
		"setup_s":          {setupS, "s"},
		"tweets_per_s":     {harness.Median(acc.rates), "tweets/s"},
		"cpu_us_per_tweet": {harness.Median(acc.cpuPerTweet) / 1e3, "us"},
		"live_heap_mb":     {harness.Median(acc.liveHeap) / 1e6, "MB"},
		"query_p50_ms":     {harness.Percentile(lat, 50), "ms"},
		"query_p90_ms":     {harness.Percentile(lat, 90), "ms"},
		"ok_ops_ratio":     {1 - float64(acc.failed)/float64(max(acc.attempted, 1)), "ratio"},
	}
}

// host describes the machine a result was measured on.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
}

func hostInfo() host {
	h := host{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return h
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			h.CPU = strings.TrimSpace(v)
			break
		}
	}
	return h
}

func printJSON(label string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(fmt.Sprintf("%q", err.Error()))
	}
	fmt.Printf("%s: %s\n", label, b)
}

func printMetrics(title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println(title + ":")
	for _, n := range names {
		fmt.Printf("  %-38s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// printQueries reports query latency up to the highest percentile the
// sample supports, with the sample count.
func printQueries(acc *phase) {
	lat := acc.latencies()
	fmt.Printf("queries: n=%d", len(lat))
	top := harness.HighestSupported(len(lat), harness.Percentiles)
	for _, p := range harness.Percentiles {
		if p <= top {
			fmt.Printf(" p%g=%.3fms", p, harness.Percentile(lat, p))
		}
	}
	fmt.Println()
}

// writeSpans writes the traced phase's spans as JSON lines.
func writeSpans(rec *harness.Recorder, name string, seed int64) (string, error) {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := rec.WriteJSONL(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
