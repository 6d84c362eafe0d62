// Command perfbench is Keddah's repository benchmark. One run executes a
// named workload for a given seed as a closed loop for a fixed time,
// checks every operation's output, and prints each metric by name with
// its unit; the last line of standard output is a JSON summary.
//
//	go run . --workload pipeline --seed 1 --seconds 20 --trace 0
//
// With --trace 1 the run instead records spans around the benchmark's
// own calls into each module and prints the per-layer breakdown (self
// time, share of the operation, counts from the telemetry counters) and
// the tracing overhead. See README.md for the metric → layer → workload
// map.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// procStart approximates process start: set-up is timed from here, so
// runtime and package initialisation count as set-up.
var procStart = time.Now()

// setupChildEnv, when set, makes the process a set-up child: it reads
// its config from the variable (JSON), sets the workload up once, and
// prints the seconds from its own start to the end of set-up.
const setupChildEnv = "PERFBENCH_SETUP_CHILD"

// config is one run's parameters.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// MinOps keeps a run going past Seconds until this many operations
	// have completed, so p90 always has ten samples beyond it.
	MinOps int
	// Setups is how many cold set-ups are timed, each from the start of
	// its own process: this one and Setups-1 set-up children started
	// after the loop. setup_s is their median.
	Setups int
	// WorkDir holds files the run writes (the serve model, spans).
	WorkDir string
}

// opResult is what one operation reports. finish runs outside the
// operation's clock and allocation count: it checks the outputs, digests
// them and sizes the output, so none of that counts as program work.
type opResult struct {
	// ttfb is the time to the operation's first output; 0 means the
	// operation delivers its output when it ends.
	ttfb   time.Duration
	flows  int64 // simulated or synthetic flows it completed
	finish func() (digest string, outBytes int64, err error)
	err    error // the operation itself failed
}

// instance is a set-up instance of one benchmark workload.
type instance interface {
	// op runs operation i. Its inputs derive from (seed, i) alone.
	op(i int, sp spanRef) opResult
	close() error
}

// preparer is a workload that builds its output oracle once after
// set-up, outside the set-up time.
type preparer interface{ prepare() error }

// layerer is a workload that derives per-layer metrics of its own from
// the traced ones.
type layerer interface{ layers(m map[string]float64) }

// workloadDef describes a workload: how to set it up and how many
// closed-loop clients drive it.
type workloadDef struct {
	setup   func(cfg config) (instance, error)
	clients int
}

var workloads = map[string]workloadDef{
	"pipeline":   {setup: newPipeline, clients: 1},
	"federation": {setup: newFederation, clients: 1},
	"serve":      {setup: newServe, clients: 2},
}

func main() {
	if spec := os.Getenv(setupChildEnv); spec != "" {
		if err := setupChild(spec, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: set-up child:", err)
			os.Exit(1)
		}
		return
	}
	cfg := config{MinOps: 100, Setups: 5, WorkDir: filepath.Join(".bench_build", "runs")}
	var trace int
	flag.StringVar(&cfg.Workload, "workload", "", "workload: pipeline | federation | serve")
	flag.Int64Var(&cfg.Seed, "seed", 1, "seed every input derives from")
	flag.Float64Var(&cfg.Seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()
	cfg.Trace = trace == 1
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// summary is the final JSON line.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// phase is the outcome of one timed closed loop.
type phase struct {
	lat, ttfb []float64 // ms, one per completed op
	baseLat   []float64 // ms, the untraced twin of each traced op
	// busy is the loop's wall time less the time its clients spent
	// checking and digesting outputs.
	busy      time.Duration
	attempted int
	failed    int
	flows     int64
	outBytes  int64
	allocB    uint64  // allocated by the ops, checks left out
	rssMB     float64 // peak RSS when the loop ended, before deferred checks
	digests   map[int]string
}

func run(cfg config, out io.Writer) error {
	def, ok := workloads[cfg.Workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (pipeline | federation | serve)", cfg.Workload)
	}
	if cfg.Seconds <= 0 || cfg.MinOps < 1 || cfg.Setups < 1 {
		return fmt.Errorf("need seconds > 0, at least one op and one set-up")
	}
	fmt.Fprintf(out, "# perfbench workload=%s seed=%d seconds=%g trace=%t\n", cfg.Workload, cfg.Seed, cfg.Seconds, cfg.Trace)
	fmt.Fprintf(out, "# host cores=%d gomaxprocs=%d go=%s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)

	w, err := def.setup(cfg)
	if err != nil {
		return fmt.Errorf("set up %s: %w", cfg.Workload, err)
	}
	setups := []float64{time.Since(procStart).Seconds()}
	defer w.close()
	if p, ok := w.(preparer); ok {
		if err := p.prepare(); err != nil {
			return fmt.Errorf("prepare %s: %w", cfg.Workload, err)
		}
	}

	metrics := map[string]metric{}
	var res phase
	if !cfg.Trace {
		res = loop(def.clients, w, nil, cfg.Seconds, cfg.MinOps)
		for k := 1; k < cfg.Setups; k++ {
			s, err := runSetupChild(cfg)
			if err != nil {
				return err
			}
			setups = append(setups, s)
		}
		fillEndToEnd(metrics, res, median(setups))
	} else {
		tr := newTracer()
		res = loop(def.clients, w, tr, cfg.Seconds, max(cfg.MinOps/2, 1))
		layer := tr.perOp(len(res.lat))
		if l, ok := w.(layerer); ok {
			l.layers(layer)
		}
		layer["trace.op_p50_ms"] = percentile(res.lat, 50)
		layer["trace.untraced_op_p50_ms"] = percentile(res.baseLat, 50)
		printLayers(out, tr, len(res.lat))
		fmt.Fprintf(out, "# trace overhead: op_p50 traced %.3f ms vs untraced %.3f ms (%+.1f%%)\n",
			layer["trace.op_p50_ms"], layer["trace.untraced_op_p50_ms"],
			100*(layer["trace.op_p50_ms"]/layer["trace.untraced_op_p50_ms"]-1))
		spansPath := filepath.Join(cfg.WorkDir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.Workload, cfg.Seed))
		if err := tr.writeSpans(spansPath); err != nil {
			return err
		}
		fmt.Fprintf(out, "# spans: %d written to %s\n", len(tr.spans), spansPath)
		for _, name := range layerMetricNames {
			metrics[name.name] = metric{Value: layer[name.name], Unit: name.unit}
		}
	}

	printDigests(out, res.digests)
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-32s %14.4f %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	fmt.Fprintf(out, "# ops=%d attempted=%d failed=%d error_rate=%g\n",
		len(res.lat), res.attempted, res.failed, float64(res.failed)/float64(max(res.attempted, 1)))
	line, err := json.Marshal(summary{
		Correct:   res.failed == 0 && res.attempted > 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	return nil
}

// loop runs the closed loop: clients goroutines each take the next op
// index and run it, until seconds have passed and at least minOps ops
// have been taken. With a tracer, each op runs twice back to back,
// untraced and then traced: the pair gives the tracing overhead free of
// the host's drift over the run, and the two digests must agree, since
// attaching telemetry must not change what is simulated.
//
// Checks stay out of the loop's time and allocation count. With one
// client an op is checked as soon as it ends, and the check's time and
// allocations are subtracted. With more, another client's op would run
// during the check and blur both counts, so every check waits until the
// loop has ended. A traced run reports neither count, so it checks each
// op as soon as it ends: spans a check records (serve's in-process
// generate and encode) then lie next to the op they are compared with.
func loop(clients int, w instance, tr *tracer, seconds float64, minOps int) phase {
	var (
		mu         sync.Mutex
		res        = phase{digests: map[int]string{}}
		checking   time.Duration
		checkAlloc uint64
		deferred   []measured
		next       atomic.Int64
		wg         sync.WaitGroup
	)
	inline := clients == 1 || tr != nil
	runtime.GC()
	alloc0 := totalAlloc()
	deadline := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= minOps && time.Since(start) >= deadline {
					return
				}
				m := measured{i: i, traced: tr != nil}
				var checked time.Duration
				var checkedB uint64
				for _, o := range m.outcomes(tr) {
					*o = measure(w, i, o == &m.op, tr)
					if inline {
						t, a := time.Now(), totalAlloc()
						o.check()
						checkedB += totalAlloc() - a
						checked += time.Since(t)
					}
				}
				mu.Lock()
				checking += checked
				checkAlloc += checkedB
				if inline {
					res.add(m)
				} else {
					deferred = append(deferred, m)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.busy = time.Since(start) - checking // exact with one client; a traced run does not use it
	res.allocB = totalAlloc() - alloc0 - checkAlloc
	res.rssMB = maxRSSMB()

	// Deferred checks, spread over the clients' goroutines.
	var k atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := int(k.Add(1) - 1); j < len(deferred); j = int(k.Add(1) - 1) {
				m := &deferred[j]
				for _, o := range m.outcomes(tr) {
					o.check()
				}
			}
		}()
	}
	wg.Wait()
	for _, m := range deferred {
		res.add(m)
	}
	return res
}

// measured is one op index: its traced run and, in a traced loop, the
// untraced twin that ran just before it.
type measured struct {
	i        int
	traced   bool
	base, op outcome
}

// outcomes lists the runs of the op, in the order they execute.
func (m *measured) outcomes(tr *tracer) []*outcome {
	if tr == nil {
		return []*outcome{&m.op}
	}
	return []*outcome{&m.base, &m.op}
}

// add tallies a checked op.
func (p *phase) add(m measured) {
	if m.traced {
		p.attempted++
		if m.base.err == nil && m.op.err == nil && m.base.digest != m.op.digest {
			m.base.err = fmt.Errorf("digest differs with tracing on:\n  %s\n  %s", m.base.digest, m.op.digest)
		}
		if m.base.err != nil {
			p.failed++
			fmt.Fprintf(os.Stderr, "perfbench: op %d failed untraced: %v\n", m.i, m.base.err)
		} else {
			p.baseLat = append(p.baseLat, ms(m.base.lat))
		}
	}
	p.attempted++
	if m.op.err != nil {
		p.failed++
		fmt.Fprintf(os.Stderr, "perfbench: op %d failed: %v\n", m.i, m.op.err)
		return
	}
	p.lat = append(p.lat, ms(m.op.lat))
	p.ttfb = append(p.ttfb, ms(m.op.ttfb))
	p.flows += m.op.flows
	p.outBytes += m.op.outBytes
	p.digests[m.i] = m.op.digest
}

// outcome is one measured op: its time, what it produced, and the check
// still to run on it.
type outcome struct {
	lat, ttfb       time.Duration
	flows, outBytes int64
	digest          string
	finish          func() (digest string, outBytes int64, err error)
	err             error
}

// measure runs op i, traced when traced is set and there is a tracer.
func measure(w instance, i int, traced bool, tr *tracer) outcome {
	if !traced {
		tr = nil
	}
	sp := tr.root(i)
	t0 := time.Now()
	r := w.op(i, sp)
	o := outcome{lat: time.Since(t0), ttfb: r.ttfb, flows: r.flows, finish: r.finish, err: r.err}
	sp.end()
	if o.ttfb == 0 {
		o.ttfb = o.lat
	}
	return o
}

// check runs the op's checks and digest once; the finish closure, and
// the outputs it holds, are dropped afterwards.
func (o *outcome) check() {
	if o.err == nil {
		o.digest, o.outBytes, o.err = o.finish()
	}
	o.finish = nil
}

// totalAlloc is the bytes the process has allocated so far.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// runSetupChild sets the workload up once in a fresh process (this
// binary, as a set-up child) and returns that process's set-up seconds,
// timed from its own start, so every sample of setup_s is a cold start.
func runSetupChild(cfg config) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	spec, err := json.Marshal(cfg)
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), setupChildEnv+"="+string(spec))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up child: %w", err)
	}
	var r struct{ SetupS float64 }
	if err := json.Unmarshal(out, &r); err != nil || r.SetupS <= 0 {
		return 0, fmt.Errorf("set-up child printed %q", out)
	}
	return r.SetupS, nil
}

// setupChild is the set-up child's whole run: set up, close, and print
// the set-up time as {"SetupS": seconds}.
func setupChild(spec string, out io.Writer) error {
	var cfg config
	if err := json.Unmarshal([]byte(spec), &cfg); err != nil {
		return err
	}
	def, ok := workloads[cfg.Workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	w, err := def.setup(cfg)
	if err != nil {
		return err
	}
	secs := time.Since(procStart).Seconds()
	if err := w.close(); err != nil {
		return err
	}
	return json.NewEncoder(out).Encode(struct{ SetupS float64 }{secs})
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// fillEndToEnd derives the end-to-end metrics from an untraced phase.
func fillEndToEnd(m map[string]metric, p phase, setupS float64) {
	secs := p.busy.Seconds()
	n := float64(max(len(p.lat), 1))
	m["setup_s"] = metric{setupS, "s"}
	m["op_p50_ms"] = metric{percentile(p.lat, 50), "ms"}
	m["op_p90_ms"] = metric{percentile(p.lat, 90), "ms"}
	m["ttfb_p50_ms"] = metric{percentile(p.ttfb, 50), "ms"}
	m["ttfb_p90_ms"] = metric{percentile(p.ttfb, 90), "ms"}
	m["ops_per_s"] = metric{float64(len(p.lat)) / secs, "1/s"}
	m["sim_flows_per_s"] = metric{float64(p.flows) / secs, "1/s"}
	m["output_mb_per_s"] = metric{float64(p.outBytes) / 1e6 / secs, "MB/s"}
	m["alloc_mb_per_op"] = metric{float64(p.allocB) / 1e6 / n, "MB"}
	m["max_rss_mb"] = metric{p.rssMB, "MB"}
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// percentile is the nearest-rank percentile of xs (0 for none).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(p/100*float64(len(s))+0.5) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// printDigests prints one line per op, in op order, so two runs at the
// same seed can be compared line by line.
func printDigests(out io.Writer, digests map[int]string) {
	ops := make([]int, 0, len(digests))
	for i := range digests {
		ops = append(ops, i)
	}
	sort.Ints(ops)
	for _, i := range ops {
		fmt.Fprintf(out, "digest op=%d %s\n", i, digests[i])
	}
}

// printLayers prints each layer's self time per op and its share of the
// operation's time.
func printLayers(out io.Writer, tr *tracer, ops int) {
	times := tr.layerTimes()
	var total float64
	for _, s := range tr.spans {
		if s.Name == "op" {
			total += float64(s.EndNs-s.StartNs) / 1e6
		}
	}
	names := make([]string, 0, len(times))
	for n := range times {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return times[names[i]] > times[names[j]] })
	fmt.Fprintf(out, "# layer self time over %d traced ops (op total %.3f ms/op)\n", ops, total/float64(max(ops, 1)))
	for _, n := range names {
		label := n
		if n == "op" {
			label = "op (outside child spans)"
		}
		fmt.Fprintf(out, "#   %-28s %10.3f ms/op %6.1f%%\n", label, times[n]/float64(max(ops, 1)), 100*times[n]/max(total, 1e-9))
	}
}

// digest hashes each named artefact and renders "name=hash" pairs.
type digest struct{ parts []string }

func (d *digest) add(name string, write func(io.Writer) error) error {
	h := sha256.New()
	if err := write(h); err != nil {
		return fmt.Errorf("digest %s: %w", name, err)
	}
	d.parts = append(d.parts, name+"="+hex.EncodeToString(h.Sum(nil))[:16])
	return nil
}

func (d *digest) String() string { return strings.Join(d.parts, " ") }

// opSeed derives an operation's seed from the run seed and the op index
// (splitmix64), so every op has its own inputs and a given (seed, op)
// always has the same ones.
func opSeed(seed int64, op int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(op+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z ^ (z >> 31)) >> 1)
}
