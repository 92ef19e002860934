package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// host is the fingerprint every result file carries. It is recorded only;
// no metric is normalized by it.
type host struct {
	GoVersion   string  `json:"go_version"`
	GOOS        string  `json:"goos"`
	GOARCH      string  `json:"goarch"`
	NumCPU      int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	CPUModel    string  `json:"cpu_model"`
	Revision    string  `json:"vcs_revision"`
	Seed        uint64  `json:"seed"`
	Calibration float64 `json:"calibration_loops_per_ms"`
}

func fingerprint(seed uint64) host {
	h := host{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		Revision:   "unknown",
		Seed:       seed,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Revision = s.Value
			}
		}
	}
	h.Calibration = calibrate(200 * time.Millisecond)
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// calibSink keeps the calibration loop from being optimized away.
var calibSink uint64

// calibrate runs a fixed integer kernel for d and returns its rate in loops
// per millisecond: a coarse score of how fast this host ran at the time.
func calibrate(d time.Duration) float64 {
	x := uint64(88172645463325252)
	loops := 0
	start := time.Now()
	for time.Since(start) < d {
		for i := 0; i < 10000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		loops++
	}
	calibSink = x
	return float64(loops) / ms(time.Since(start))
}

// Host speed. On a shared virtual machine the speed of allocation-heavy code
// drifts by a third or more from one second to the next, and a run's median
// cannot average out drifts that outlast it; an integer loop hardly moves
// while this happens, but a loop that fills a fresh map moves with the
// workloads. So a probe process fills a map between ops, and every reported
// time is scaled by probeRefMS over the probe time measured around it: the
// time the work would have taken while the probe took probeRefMS. The probe
// runs in a process of its own so that the workload's heap, and the garbage
// collector working on it, never changes the probe's time.
const (
	probeEntries = 1 << 14
	probeRefMS   = 1.5
)

// probeMain is the probe process: for every byte read from standard input it
// fills a fresh map and writes how long that took, in ns, as a line. Its own
// collector runs only between fills, so a fill is the same work every time.
func probeMain() {
	debug.SetGCPercent(-1)
	in := bufio.NewReader(os.Stdin)
	for {
		if _, err := in.ReadByte(); err != nil {
			return
		}
		runtime.GC()
		t0 := time.Now()
		m := make(map[uint64]uint64)
		r := newRand(1)
		for i := 0; i < probeEntries; i++ {
			m[r.next()] = uint64(i)
		}
		d := time.Since(t0)
		calibSink += uint64(len(m))
		fmt.Println(d.Nanoseconds())
	}
}

// prober talks to a probe process and keeps the probe times it measured.
type prober struct {
	cmd   *exec.Cmd
	in    io.WriteCloser
	out   *bufio.Scanner
	times []float64 // ms, in the order taken
	err   error
}

// startProber starts a probe process, a re-exec of this binary.
func startProber() (*prober, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	p := &prober{cmd: exec.Command(exe, "-probe")}
	p.cmd.Stderr = os.Stderr
	if p.in, err = p.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	out, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	p.out = bufio.NewScanner(out)
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	return p, nil
}

// take measures one probe and returns its time in ms. After the first error
// it measures nothing more and returns NaN; close reports the error.
func (p *prober) take() float64 {
	t := math.NaN()
	if p.err == nil {
		t, p.err = p.measure()
	}
	p.times = append(p.times, t)
	return t
}

func (p *prober) measure() (float64, error) {
	if _, err := p.in.Write([]byte{1}); err != nil {
		return 0, err
	}
	if !p.out.Scan() {
		return 0, fmt.Errorf("probe process ended: %v", p.out.Err())
	}
	ns, err := strconv.ParseFloat(p.out.Text(), 64)
	return ns / 1e6, err
}

// takeN measures n probes and returns their times.
func (p *prober) takeN(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = p.take()
	}
	return out
}

// close ends the probe process, waits for it, and returns the first error.
func (p *prober) close() error {
	p.in.Close() // the probe process exits at end of input
	if err := p.cmd.Wait(); p.err == nil {
		p.err = err
	}
	return p.err
}

// speedScale is the factor that scales a time measured while the probes
// around it took probes: probeRefMS over their median.
func speedScale(probes []float64) float64 {
	return probeRefMS / median(probes)
}

// scaleOps scales each op's latency by the probes around it: probes[i] was
// taken just before op i and probes[i+1] just after it, and op i is scaled
// by the median of probes i-1 to i+2.
func scaleOps(lat, probes []float64) []float64 {
	out := make([]float64, len(lat))
	for i, l := range lat {
		out[i] = l * speedScale(probes[max(0, i-1):min(len(probes), i+3)])
	}
	return out
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// allocSample is reused so reading the allocation counter allocates nothing.
var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocs returns the cumulative bytes allocated on the heap. Unlike
// runtime.ReadMemStats it does not stop the world, so it can bracket every op.
func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}
