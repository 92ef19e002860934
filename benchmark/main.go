// Command benchmark is the repository's benchmark. It runs one workload,
// checks every output against references computed independently of the
// optimizer, and prints each metric by name with its unit; the last line of
// standard output is a JSON summary.
//
//	bash benchmark/run.sh --workload scale-cold --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh                       # every workload, one after another
//	bash benchmark/run.sh -compare A/ B/        # compare two sets of result files
//
// A run is three parts, each a child process that sets the workload up once,
// measures a third of --seconds and prints what it measured as JSON.
// Latencies are pooled over the parts; set-up time and peak RSS are the
// parts' medians, so one slow set-up or one heavy input does not decide them.
// Every reported time is scaled by the host's speed, which a probe process
// measures around each op (see host.go). With --trace 1 the last part also runs a traced quarter of the ops and the
// run reports the per-layer metrics. See README.md for the workloads, metrics
// and bounds.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"time"
)

// runConfig is one run's settings.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
	// small shrinks every input set to test size and runs one part.
	small bool
}

// parts is how many child processes a run is split into.
func (c runConfig) parts() int {
	if c.small {
		return 1
	}
	return 3
}

func (c runConfig) duration() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// partDuration is how long each part's timed phase runs.
func (c runConfig) partDuration() time.Duration {
	return c.duration() / time.Duration(c.parts())
}

// minOps is the fewest timed ops a part of a compiler workload runs, so that
// a run's p95 has at least ten samples beyond it however slow the host is.
func (c runConfig) minOps() int {
	if c.small {
		return 1
	}
	return (200 + c.parts() - 1) / c.parts()
}

// args are the flags that reproduce the run in a child process.
func (c runConfig) args() []string {
	return []string{"-workload", c.workload, "-seed", strconv.FormatUint(c.seed, 10),
		"-seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64), "-trace", strconv.Itoa(boolInt(c.trace)), "-out", c.out}
}

// part is what one child process measured; aggregate combines the parts.
type part struct {
	SetupS    float64   `json:"setup_s"`      // scaled by host speed
	Latencies []float64 `json:"latencies_ms"` // one per timed op, scaled by host speed
	Wall      []float64 `json:"wall_ms"`      // the same, as measured
	Probes    []float64 `json:"probes_ms"`    // every host-speed probe taken
	AllocMB   float64   `json:"alloc_mb"`     // heap allocated by the timed ops
	PeakRSSMB float64   `json:"peak_rss_mb"`
	// TracedP50 is the p50 of the traced ops' root spans (last part only).
	TracedP50 float64            `json:"traced_p50_ms"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures"` // the first few failure messages
	Vals      map[string]float64 `json:"vals"`     // per-layer metrics
}

func (p *part) fail(format string, args ...any) {
	p.Failed++
	if len(p.Failures) < 10 {
		p.Failures = append(p.Failures, fmt.Sprintf(format, args...))
	}
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultFile is what each run writes to the -out directory for -compare:
// every metric the run measured, not only those of the summary line.
type resultFile struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Trace     bool                   `json:"trace"`
	Seconds   float64                `json:"seconds"`
	Host      host                   `json:"host"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var cfg runConfig
	var trace, partIndex int
	var compare bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run; empty runs every workload")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are drawn from")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "how long the timed phase runs, over all parts")
	flag.IntVar(&trace, "trace", 0, "1 adds a traced run and reports the per-layer metrics")
	flag.StringVar(&cfg.out, "out", ".bench_build/out", "directory for result files and traces")
	flag.BoolVar(&compare, "compare", false, "compare the result files of two directories: -compare A/ B/")
	flag.IntVar(&partIndex, "part", -1, "internal: run one part of the workload and print it as JSON")
	probeFlag := flag.Bool("probe", false, "internal: serve host-speed probes on standard input and output")
	flag.Parse()
	cfg.trace = trace == 1
	switch {
	case *probeFlag:
		probeMain()
		return
	case compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two directories"))
		}
		os.Exit(runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case flag.NArg() > 0:
		fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	case partIndex >= 0:
		p, err := runPart(cfg, partIndex)
		if err != nil {
			fatal(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(p); err != nil {
			fatal(err)
		}
		return
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fatal(err)
	}
	if cfg.workload != "" {
		os.Exit(runWorkload(cfg))
	}
	// Every workload, one after another.
	code := 0
	for _, w := range workloads {
		fmt.Printf("== %s\n", w.Name)
		cfg.workload = w.Name
		code = max(code, runWorkload(cfg))
	}
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runWorkload runs, aggregates and reports one workload and returns the exit
// code: 1 when a check failed, 2 when the workload could not run.
func runWorkload(cfg runConfig) int {
	parts, err := runParts(cfg)
	var run *part
	if err == nil {
		run = aggregate(parts)
		err = report(os.Stdout, cfg, run, fingerprint(cfg.seed))
	}
	switch {
	case err != nil:
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", cfg.workload, err)
		return 2
	case run.Failed > 0:
		return 1
	}
	return 0
}

// runParts runs the parts one after another, each in its own child process
// that prints what it measured as JSON, and returns what they measured.
func runParts(cfg runConfig) ([]*part, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var parts []*part
	for i := 0; i < cfg.parts(); i++ {
		var out bytes.Buffer
		cmd := exec.Command(exe, append(cfg.args(), "-part", strconv.Itoa(i))...)
		cmd.Stdout, cmd.Stderr = &out, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("part %d: %w", i, err)
		}
		var p part
		if err := json.Unmarshal(out.Bytes(), &p); err != nil {
			return nil, fmt.Errorf("part %d: %w", i, err)
		}
		parts = append(parts, &p)
	}
	return parts, nil
}

// runPart sets the workload up once and measures it for its share of the
// run, with a probe process measuring host speed beside it; the last part
// also runs the traced ops.
func runPart(cfg runConfig, index int) (*part, error) {
	w := cliWorkloads()[cfg.workload]
	if w == nil && cfg.workload != "serve-mixed" {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	pr, err := startProber()
	if err != nil {
		return nil, err
	}
	p := &part{Vals: make(map[string]float64)}
	last := index == cfg.parts()-1
	if w == nil {
		err = runServe(cfg, index, last, pr, p)
	} else {
		err = runCLI(w, cfg, last, pr, p)
	}
	if cerr := pr.close(); err == nil {
		err = cerr
	}
	p.Probes = pr.times
	return p, err
}

// aggregate combines the parts into the run: latencies pooled over every
// part's ops, allocation over all ops, the median part's set-up time and
// peak RSS, and the last part's per-layer metrics.
func aggregate(parts []*part) *part {
	last := parts[len(parts)-1]
	run := &part{Vals: maps.Clone(last.Vals)}
	var setup, rss []float64
	for _, p := range parts {
		run.Latencies = append(run.Latencies, p.Latencies...)
		run.Wall = append(run.Wall, p.Wall...)
		run.Probes = append(run.Probes, p.Probes...)
		run.AllocMB += p.AllocMB
		setup = append(setup, p.SetupS)
		rss = append(rss, p.PeakRSSMB)
		run.Attempted += p.Attempted
		run.Failed += p.Failed
		run.Failures = append(run.Failures, p.Failures...)
	}
	v := run.Vals
	v["latency_p50_ms"] = median(run.Latencies)
	v["latency_p95_ms"] = p95(run.Latencies)
	v["alloc_mb_per_op"] = run.AllocMB / float64(len(run.Latencies))
	v["setup_s"] = median(setup)
	v["peak_rss_mb"] = median(rss)
	v["bench.wall_p50_ms"] = median(run.Wall)
	v["bench.wall_p95_ms"] = p95(run.Wall)
	v["bench.probe_ms"] = median(run.Probes)
	if last.TracedP50 > 0 {
		// Traced ops run without probes, so both sides are wall times.
		v["bench.trace_overhead_pct"] = 100 * (last.TracedP50/v["bench.wall_p50_ms"] - 1)
	}
	return run
}

// report prints every measured metric with its unit, writes the result file
// and prints the summary line: the end-to-end metrics, or with tracing the
// per-layer ones.
func report(w io.Writer, cfg runConfig, run *part, h host) error {
	all := make(map[string]metricValue)
	for _, tbl := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range tbl {
			v, ok := run.Vals[m.Name]
			if !ok {
				continue
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			all[m.Name] = metricValue{v, m.Unit}
			fmt.Fprintf(w, "%-32s %16.4f %s\n", m.Name, v, m.Unit)
		}
	}
	failures := run.Failures[:min(len(run.Failures), 10)]
	for _, f := range failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
	sum := summary{Correct: run.Failed == 0, Attempted: run.Attempted, Failed: run.Failed,
		Metrics: make(map[string]metricValue)}
	tbl := endToEnd
	if cfg.trace {
		tbl = perLayer
	}
	for _, m := range tbl {
		sum.Metrics[m.Name] = metricValue{all[m.Name].Value, m.Unit}
	}
	res := resultFile{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds, Host: h,
		Correct: sum.Correct, Attempted: sum.Attempted, Failed: sum.Failed, Failures: failures, Metrics: all}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("result-%s-seed%d-trace%d-%d.json", cfg.workload, cfg.seed, boolInt(cfg.trace), time.Now().UnixNano())
	if err := os.WriteFile(filepath.Join(cfg.out, name), data, 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func mb(bytes uint64) float64 { return float64(bytes) / (1 << 20) }

// quantiles returns the n-1 cut points that divide xs into n groups of equal
// probability, the way Python's statistics.quantiles(xs, n=n) computes them
// (the exclusive method) — the definition the bounds are checked against.
func quantiles(xs []float64, n int) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	out := make([]float64, n-1)
	switch len(s) {
	case 0:
		return out
	case 1:
		for i := range out {
			out[i] = s[0]
		}
		return out
	}
	m := len(s) + 1
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), len(s)-1)
		delta := float64(i*m - j*n)
		out[i-1] = (s[j-1]*(float64(n)-delta) + s[j]*delta) / float64(n)
	}
	return out
}

func median(xs []float64) float64 { return quantiles(xs, 2)[0] }

func p95(xs []float64) float64 { return quantiles(xs, 20)[18] }

// splitmix is the seeded generator every workload draws its inputs from.
type splitmix struct{ s uint64 }

func newRand(seed uint64) *splitmix { return &splitmix{s: seed} }

func (r *splitmix) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *splitmix) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.intn(i+1))
	}
}
