// Command vichar-experiments regenerates the paper's evaluation
// artifacts: every figure of Figures 12 and 13 plus Table 1 and the
// half-buffer savings claim. Results print as aligned tables (and
// optionally CSV files) with the same rows and series the paper
// plots.
//
// By default it runs a scaled-down protocol that preserves the
// curves' shape in seconds-to-minutes; -paper switches to the full
// 100k-warm-up / 200k-measurement protocol of §4.1.
//
// Examples:
//
//	vichar-experiments -list
//	vichar-experiments -id fig12a
//	vichar-experiments -all -csv results/
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"vichar"
	"vichar/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vichar-experiments: ")

	var (
		id         = flag.String("id", "", "run a single experiment by id (see -list)")
		all        = flag.Bool("all", false, "run every paper experiment")
		extras     = flag.Bool("extras", false, "also run the extension experiments (speculative, hotspot, variable packets)")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		paper      = flag.Bool("paper", false, "use the paper's full measurement protocol (slow)")
		workers    = flag.Int("workers", 0, "parallel simulations (0 = GOMAXPROCS; capped so jobs x kernel workers fit the machine)")
		kernel     = flag.Int("kernel-workers", 0, "cycle-kernel workers per simulation (0/1 = serial; results identical at any setting)")
		reps       = flag.Int("replicates", 1, "independent replicates per point (reports the mean)")
		csvDir     = flag.String("csv", "", "also write <id>.csv files into this directory")
		svgDir     = flag.String("svg", "", "also write <id>.svg charts into this directory")
		chart      = flag.Bool("chart", false, "also print each experiment as an ASCII chart")
		quiet      = flag.Bool("quiet", false, "suppress progress output")
		observe    = flag.Bool("observe", false, "run one instrumented simulation and print the metrics-registry report instead of an experiment")
		resilience = flag.Bool("resilience", false, "run the fault-resilience sweep (shorthand for -id ext-resilience)")
		txns       = flag.Bool("transactions", false, "run the NIU transaction-layer sweep (shorthand for -id ext-transactions)")
	)
	flag.Parse()

	if *resilience {
		*id = "ext-resilience"
	}
	if *txns {
		*id = "ext-transactions"
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		for _, e := range experiments.Extras() {
			fmt.Printf("%-16s %s\n", e.ID, e.Title)
		}
		fmt.Printf("%-8s %s\n", "table1", "Area and Power Overhead of the ViChaR Architecture")
		return
	}

	opts := experiments.Quick()
	if *paper {
		opts = experiments.Paper()
	}

	if *observe {
		cfg := vichar.DefaultConfig()
		cfg.Arch = vichar.ViChaR
		cfg.InjectionRate = 0.30
		if *kernel > 0 {
			opts.KernelWorkers = *kernel
		}
		obs, err := experiments.Observe(cfg, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(obs.Report())
		return
	}

	opts.Workers = *workers
	opts.KernelWorkers = *kernel
	opts.Replicates = *reps
	if !*quiet {
		opts.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\r  %d/%d runs", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	var exps []*experiments.Experiment
	switch {
	case *all:
		exps = experiments.All()
		if *extras {
			exps = append(exps, experiments.Extras()...)
		}
	case *id == "table1":
		printTable1()
		return
	case *id != "":
		e := experiments.ByID(*id)
		if e == nil {
			log.Fatalf("unknown experiment %q (try -list)", *id)
		}
		exps = []*experiments.Experiment{e}
	default:
		log.Fatal("nothing to do: pass -id <experiment>, -all or -list")
	}

	for _, e := range exps {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "%s: %s (%d runs)\n", e.ID, e.Title, len(e.Runs))
		}
		out, err := e.Execute(opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(out.Table())
		if *chart {
			fmt.Println(out.Chart(64, 16))
		}
		printSpecial(out)
		if *csvDir != "" {
			writeArtifact(*csvDir, e.ID+".csv", out.CSV(), *quiet)
		}
		if *svgDir != "" {
			writeArtifact(*svgDir, e.ID+".svg", out.SVG(640, 420), *quiet)
		}
	}

	if *all {
		printTable1()
	}
}

// writeArtifact persists one rendered experiment artifact.
func writeArtifact(dir, name, content string, quiet bool) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		log.Fatal(err)
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
}

// printSpecial renders the extra artifacts of the single-run figures:
// 13(e)'s spatial node grid and 13(f)'s temporal series.
func printSpecial(out *experiments.Outcome) {
	switch out.Experiment.ID {
	case "ext-transactions":
		fmt.Println("Transaction latency mean / p99 (cycles):")
		for _, s := range out.Series {
			fmt.Printf("%-10s", s.Name)
			for _, p := range s.Points {
				t := p.Results.Txn
				if t == nil {
					fmt.Printf("  %14s", "-")
					continue
				}
				fmt.Printf("  %6.1f/%-7.1f", t.AvgLatency, t.P99Latency)
			}
			fmt.Println()
		}
	case "fig13e":
		res := out.Series[0].Points[0].Results
		fmt.Println("Per-node average # of in-use VCs (8 columns = X coordinate):")
		fmt.Println(experiments.NodeGrid(res.PerNodeVCs, 8))
	case "fig13f":
		res := out.Series[0].Points[0].Results
		fmt.Println("Network-mean in-use VCs over time (cycle:value):")
		pts := make([]experiments.Point, len(res.VCSeries))
		for i, sp := range res.VCSeries {
			pts[i] = experiments.Point{X: float64(sp.Cycle), Y: sp.Value}
		}
		fmt.Println(experiments.SeriesSparkline(pts, 24))
	}
}

// printTable1 regenerates Table 1 and the half-buffer savings from
// the synthesis model.
func printTable1() {
	vic, gen, areaDelta, powerDelta := vichar.Table1()
	fmt.Println("TABLE 1 — Area and Power Overhead of the ViChaR Architecture (per input port)")
	fmt.Printf("%-36s %14s %12s\n", "Component (one input port)", "Area (µm²)", "Power (mW)")
	for _, r := range vic {
		fmt.Printf("%-36s %14.2f %12.2f\n", r.Component, r.AreaUm2, r.PowerMW)
	}
	for _, r := range gen {
		fmt.Printf("%-36s %14.2f %12.2f\n", r.Component, r.AreaUm2, r.PowerMW)
	}
	genTotalArea := gen[len(gen)-1].AreaUm2
	genTotalPower := gen[len(gen)-1].PowerMW
	fmt.Printf("%-36s %14.2f %12.2f\n", "ViChaR delta", areaDelta, powerDelta)
	fmt.Printf("%-36s %13.2f%% %11.2f%%\n", "relative",
		100*areaDelta/genTotalArea, 100*powerDelta/genTotalPower)

	area, pow := vichar.HalfBufferSavings()
	fmt.Printf("\nHalf-buffer ViChaR router vs generic router: %.1f%% area, %.1f%% power savings\n",
		area*100, pow*100)
}
