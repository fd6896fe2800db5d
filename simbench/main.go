// Command simbench is the repository benchmark: it runs one named
// scheme×workload pair through the full simulated machine in a closed loop
// (one simulation at a time, sequential engine, default configuration),
// checks every run's outputs, and prints the end-to-end metrics (trace 0) or
// the per-layer metrics (trace 1) as the last line of standard output, one
// JSON object. A human-readable report precedes it. See README.md for the
// workloads, the metrics and what each one should move.
//
//	bash simbench/run.sh --workload nomad_cact --seed 1 --seconds 40 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"nomad/internal/system"
	"nomad/internal/workload"
)

// benchWorkload is one scheme×workload pair. Why it is in the set is in
// README.md; each pair stresses a different mix of layers.
type benchWorkload struct {
	name   string
	scheme system.SchemeName
	abbr   string
}

var benchWorkloads = []benchWorkload{
	{"nomad_cact", system.SchemeNOMAD, "cact"},
	{"tid_pr", system.SchemeTiD, "pr"},
	{"tdc_sssp", system.SchemeTDC, "sssp"},
}

// setup_s is the median over setupBatches batches of setupBatch machines
// built back to back. The batches run after the timed simulations, once the
// peak resident set has been read, because a batch's garbage can raise the
// peak above what a simulation reaches.
const setupBatches, setupBatch = 10, 20

// driverReserve is the host time set aside for the layer drivers (they
// take one to three seconds).
const driverReserve = 3 * time.Second

// metric is one named, unit-carrying value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name: nomad_cact, tid_pr or tdc_sssp")
	seed := fs.Uint64("seed", 1, "workload seed (becomes Config.Seed)")
	seconds := fs.Float64("seconds", 30, "host seconds of timed simulations")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: add the traced run and layer drivers, print per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", *seconds)
	}
	var w benchWorkload
	for _, c := range benchWorkloads {
		if c.name == *name {
			w = c
		}
	}
	if w.name == "" {
		return fmt.Errorf("unknown --workload %q", *name)
	}
	spec, found := workload.ByAbbr(w.abbr)
	if !found {
		return fmt.Errorf("workload %q not in the generator's specs", w.abbr)
	}
	cfg := system.DefaultConfig()
	cfg.Scheme = w.scheme
	cfg.Seed = *seed

	ctx := context.Background()
	fmt.Fprintf(stdout, "simbench %s: %s × %s (%s), %d cores, default machine, closed loop, one simulation at a time\n",
		w.name, w.scheme, spec.Name, spec.Class, cfg.Cores)
	fmt.Fprintln(stdout, describeHost(*seed))

	var ref *simRun // the seed's first successful run
	var runs []*simRun
	attempted, failed := 0, 0
	budget := time.Duration(*seconds * float64(time.Second))
	start := time.Now()
	for {
		r := runSim(ctx, cfg, spec, false)
		attempted++
		r.check(cfg, ref)
		if ref == nil && r.err == nil {
			ref = r
		}
		if len(r.failures) > 0 {
			failed++
		}
		r.report(stdout, fmt.Sprintf("run %d", len(runs)+1))
		runs = append(runs, r)
		// Start another simulation only if it fits in the budget, judged
		// by the one just finished, so the run's length stays near
		// --seconds. With tracing, the traced simulation and the layer
		// drivers must fit too.
		reserve := r.total
		if *trace == 1 {
			reserve = 2*r.total + driverReserve
		}
		if time.Since(start)+reserve >= budget {
			break
		}
	}

	ok := okRuns(runs)
	if len(ok) == 0 {
		return fmt.Errorf("every timed simulation failed")
	}
	res := result{Metrics: map[string]metric{}}
	if *trace == 0 {
		rss, err := peakRSSMB()
		if err != nil {
			return err
		}
		var setups []float64
		for i := 0; i < setupBatches; i++ {
			d, err := timeSetups(cfg, spec, setupBatch)
			if err != nil {
				return err
			}
			setups = append(setups, d)
		}
		var perRun []float64
		for _, r := range ok {
			perRun = append(perRun, r.kips())
		}
		kips := median(perRun)
		res.Metrics["sim_kips"] = metric{kips, "kinstr/s"}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["peak_rss_mb"] = metric{rss, "MB"}
		fmt.Fprintf(stdout, "end to end: sim_kips %.1f (median over %d simulations), setup_s %.6f (median over %d batches of %d constructions), peak_rss_mb %.1f, failed %d of %d\n",
			kips, len(ok), median(setups), len(setups), setupBatch, rss, failed, attempted)
	} else {
		traced := runSim(ctx, cfg, spec, true)
		attempted++
		traced.check(cfg, ref)
		if len(traced.failures) > 0 {
			failed++
		}
		traced.report(stdout, "traced run")
		if traced.err != nil {
			return traced.err
		}
		drv, err := runDrivers(spec, cfg, *seed)
		if err != nil {
			return err
		}
		if res.Metrics, err = layerMetrics(stdout, cfg, ok, traced, drv); err != nil {
			return err
		}
		res.Metrics["failed_share"] = metric{float64(failed) / float64(attempted), "share"}
	}
	res.Correct, res.Attempted, res.Failed = failed == 0, attempted, failed
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(line))
	return err
}

// describeHost renders the host block printed ahead of every result.
func describeHost(seed uint64) string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		model = cpuModel(string(b))
	}
	return fmt.Sprintf("host: cpu=%q nproc=%d GOMAXPROCS=%d go=%s seed=%d",
		model, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), seed)
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count). xs must not be empty; it is not modified.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
