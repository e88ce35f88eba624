// Command perfbench is the CRFS benchmark. Each workload checkpoints
// seeded BLCR process images (the paper's Table I write mixture) and
// restarts them, closed-loop, for a fixed time, verifying every byte, and
// prints end-to-end metrics (tracing off) or per-layer metrics (a traced
// run). The last line of standard output is one JSON object.
//
// Every backend is a real directory: memfs reallocates a whole file on
// every extending write, which made a 2×128 MiB BLCR checkpoint 11× slower
// on memfs than through CRFS over osfs, so memfs would measure itself.
//
// Usage, from the root of the repository:
//
//	bash perfbench/run.sh --workload ckpt-raw --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"crfs/internal/codec"
	"crfs/internal/obs"
)

// rig is one workload's system under test, set up and ready for rounds.
type rig interface {
	// round checkpoints and restarts every rank's image once, timing
	// into rec and verifying every byte; it returns the operations
	// attempted and failed (errors and mismatches).
	round(n int, rec *recorder) (attempted, failed int)
	// counts adds the program's cumulative counters to t.
	counts(t tally)
	// userBytes is the image bytes one round checkpoints.
	userBytes() int64
	// directMBps is the native arm measured at set-up.
	directMBps() float64
	close() error
}

// env is what a rig is built from.
type env struct {
	p     *probe
	dir   string // the rig's backend directory, empty at set-up
	seed  int64
	shift uint // image sizes are divided by 2^shift (tests only)
	logf  func(format string, args ...any)
}

func (e env) scale(size int64) int64 { return size >> e.shift }

// workloads maps each workload to its rig. BENCHMARK.json says why each
// was chosen.
var workloads = map[string]func(env) (rig, error){
	"ckpt-raw": func(e env) (rig, error) {
		return newMountRig(e, mountSpec{imageSize: 64 << 20})
	},
	"restart-deflate": func(e env) (rig, error) {
		return newMountRig(e, mountSpec{
			imageSize:    24 << 20,
			compressible: true,
			codec:        codec.Deflate(),
			readAhead:    8, // crfscp's and crfsd's default
			readLatency:  time.Millisecond,
		})
	},
	"stripe-2node": func(e env) (rig, error) {
		return newStripeRig(e, 32<<20)
	},
}

// recorder collects a run's end-to-end samples from concurrent ranks.
// Latency percentiles are taken per round and reported as the median over
// rounds, so a burst of outside load that slows a few rounds does not
// move them.
type recorder struct {
	mu              sync.Mutex
	writeNs, readNs []int64 // this round's calls

	calls                 int
	ckptMBps, restartMBps []float64
	writeP50, writeP99    []float64
	readP50, readP99      []float64
	phaseNs               int64 // this round's timed phases
}

func (r *recorder) writes(ns []int64) {
	r.mu.Lock()
	r.writeNs = append(r.writeNs, ns...)
	r.mu.Unlock()
}

func (r *recorder) reads(ns []int64) {
	r.mu.Lock()
	r.readNs = append(r.readNs, ns...)
	r.mu.Unlock()
}

func (r *recorder) ckpt(mbps float64, d time.Duration) {
	r.ckptMBps = append(r.ckptMBps, mbps)
	r.phaseNs += int64(d)
}

func (r *recorder) restart(mbps float64, d time.Duration) {
	r.restartMBps = append(r.restartMBps, mbps)
	r.phaseNs += int64(d)
}

// endRound turns the round's call latencies into its percentiles, in µs.
func (r *recorder) endRound() {
	r.calls += len(r.writeNs) + len(r.readNs)
	if len(r.writeNs) > 0 {
		r.writeP50 = append(r.writeP50, quantile(r.writeNs, 0.50)/1e3)
		r.writeP99 = append(r.writeP99, quantile(r.writeNs, 0.99)/1e3)
	}
	if len(r.readNs) > 0 {
		r.readP50 = append(r.readP50, quantile(r.readNs, 0.50)/1e3)
		r.readP99 = append(r.readP99, quantile(r.readNs, 0.99)/1e3)
	}
	r.writeNs, r.readNs = r.writeNs[:0], r.readNs[:0]
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	run      time.Duration
	trace    bool
	out      string // directory for backends and the chrome trace
	setups   int
	shift    uint
}

// result is the JSON object the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: ckpt-raw, restart-deflate or stripe-2node")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the images are generated from")
	flag.IntVar(&seconds, "seconds", 10, "how long to measure")
	flag.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced run")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for backend files and the chrome trace")
	flag.Parse()
	cfg.run = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	cfg.setups = 3
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run sets the workload up cfg.setups times, keeps the last, runs rounds
// until cfg.run has passed, and returns the metrics. Human-readable lines
// go to w.
func run(cfg config, w io.Writer) (result, error) {
	build, ok := workloads[cfg.workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	p := newProbe()
	p.tracer.SetProcess("perfbench " + cfg.workload)
	e := env{
		p:     p,
		dir:   filepath.Join(cfg.out, fmt.Sprintf("work-%s-%d", cfg.workload, os.Getpid())),
		seed:  cfg.seed,
		shift: cfg.shift,
		logf:  func(f string, a ...any) { fmt.Fprintf(os.Stderr, "perfbench: "+f+"\n", a...) },
	}
	defer os.RemoveAll(e.dir)

	var r rig
	var setupS, direct []float64
	for i := 0; i < cfg.setups; i++ {
		if r != nil {
			if err := r.close(); err != nil {
				return result{}, fmt.Errorf("tearing down set-up %d: %w", i, err)
			}
			r = nil
		}
		if err := os.RemoveAll(e.dir); err != nil {
			return result{}, err
		}
		if err := os.MkdirAll(e.dir, 0o755); err != nil {
			return result{}, err
		}
		runtime.GC() // the previous set-up's images are garbage now
		t0 := time.Now()
		var err error
		if r, err = build(e); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		direct = append(direct, r.directMBps())
	}
	defer func() {
		if r != nil {
			r.close()
		}
	}()

	// A traced run alternates traced and untraced rounds: per-layer
	// figures come from the traced ones, and the two halves' round times
	// give the tracing overhead.
	rec := &recorder{}
	var res result
	sums := tally{}
	var tracedNs, plainNs []float64
	traced := 0
	deadline := time.Now().Add(cfg.run)
	for n := 1; n <= 4 || time.Now().Before(deadline); n++ {
		on := cfg.trace && n%2 == 0
		p.tracer.SetEnabled(on)
		var before tally
		if on {
			before = snapshot(r, p)
		}
		rec.phaseNs = 0
		a, f := r.round(n, rec)
		rec.endRound()
		res.Attempted += a
		res.Failed += f
		if on {
			sums.add(snapshot(r, p).sub(before))
			traced++
			tracedNs = append(tracedNs, float64(rec.phaseNs))
		} else {
			plainNs = append(plainNs, float64(rec.phaseNs))
		}
	}
	p.tracer.SetEnabled(false)
	userBytes := r.userBytes()
	if err := r.close(); err != nil {
		e.logf("tear-down: %v", err)
		res.Failed++
	}
	r = nil
	res.Correct = res.Failed == 0

	var vals map[string]float64
	if cfg.trace {
		overhead := 100 * (ratio(median(tracedNs), median(plainNs)) - 1)
		vals = layerValues(sums, traced, p, userBytes, median(direct), overhead)
		path := filepath.Join(cfg.out, "trace-"+cfg.workload+".json")
		if err := os.WriteFile(path, obs.ChromeTrace(p.tracer.Snapshot()), 0o644); err != nil {
			return result{}, err
		}
		fmt.Fprintf(w, "chrome trace: %s\n", path)
	} else {
		vals = map[string]float64{
			"setup_s":      median(setupS),
			"ckpt_mbps":    median(rec.ckptMBps),
			"write_p50_us": median(rec.writeP50),
			"write_p99_us": median(rec.writeP99),
			"restart_mbps": median(rec.restartMBps),
			"read_p50_us":  median(rec.readP50),
			"read_p99_us":  median(rec.readP99),
			"peak_rss_mb":  peakRSSMB(),
		}
		fmt.Fprintf(w, "%s seed %d: %d rounds, %d calls timed\n", cfg.workload, cfg.seed, len(plainNs), rec.calls)
	}
	table := endToEnd
	if cfg.trace {
		table = perLayer
	}
	res.Metrics = make(map[string]metric, len(table))
	for _, m := range table {
		res.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", m.name, vals[m.name], m.unit)
	}
	fmt.Fprintf(w, "  %-28s %14.4f (%d of %d operations failed)\n", "fail_ratio",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	return res, nil
}

// snapshot is the probe's and the program's cumulative counters.
func snapshot(r rig, p *probe) tally {
	t := p.tally()
	r.counts(t)
	return t
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// peakRSSMB is the process's peak resident set in MB (10^6 bytes).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}
