// Command whatif answers the paper's Section VII scenario questions with
// the fitted model: how much storage and energy does a long climate
// simulation need at each output sampling rate, and what is the finest
// rate that fits a storage or energy budget (Figs. 9 and 10)?
package main

import (
	"flag"
	"fmt"
	"log"

	"insituviz"
	"insituviz/internal/core"
	"insituviz/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("whatif: ")
	years := flag.Float64("years", 100, "simulated duration in years")
	budgetTB := flag.Float64("storage-budget-tb", 2, "per-user storage budget in TB")
	energyBudgetGJ := flag.Float64("energy-budget-gj", 0, "optional energy budget in GJ (0 disables)")
	eddyMeanDays := flag.Float64("eddy-mean-days", 0, "optional mean eddy lifetime in days; derives the science-required sampling rate (0 disables)")
	minObs := flag.Int("min-observations", 100, "observations needed per eddy for tracking (with -eddy-mean-days)")
	coverage := flag.Float64("coverage", 0.9, "fraction of eddies that must be adequately observed (with -eddy-mean-days)")
	flag.Parse()

	st, err := insituviz.ReproduceStudy(insituviz.CaddyPlatform())
	if err != nil {
		log.Fatal(err)
	}
	model := st.Model
	duration := insituviz.Years(*years)
	timestep := insituviz.Minutes(30)

	intervals := []insituviz.Seconds{
		insituviz.Hours(1), insituviz.Hours(4), insituviz.Hours(8), insituviz.Hours(12),
		insituviz.Hours(24), insituviz.Days(2), insituviz.Days(4), insituviz.Days(8),
		insituviz.Days(16),
	}
	pts, err := model.SweepRates(duration, timestep, intervals)
	if err != nil {
		log.Fatal(err)
	}

	budget := insituviz.Terabytes(*budgetTB)
	tb := report.NewTable(
		fmt.Sprintf("Storage and energy vs sampling rate — %g-year simulation (Figs. 9-10)", *years),
		"output every", "post storage", "in-situ storage", "post energy", "in-situ energy", "in-situ saves")
	for _, p := range pts {
		tb.AddRow(p.Interval.String(),
			p.PostStorage.String(), p.InSituStorage.String(),
			p.PostEnergy.String(), p.InSituEnergy.String(),
			report.Pct(p.EnergySavings))
	}
	fmt.Print(tb.String())
	fmt.Println()

	for _, kind := range []insituviz.Kind{insituviz.PostProcessing, insituviz.InSitu} {
		iv, err := model.FinestIntervalUnderStorageBudget(kind, duration, budget)
		if err != nil {
			fmt.Printf("%v: no sampling rate fits %v (%v)\n", kind, budget, err)
			continue
		}
		fmt.Printf("%v: finest sampling under a %v budget = one output every %v\n", kind, budget, iv)
	}

	if *eddyMeanDays > 0 {
		lifetimes, err := core.SyntheticLifetimes(5000, *eddyMeanDays*86400, 42)
		if err != nil {
			log.Fatal(err)
		}
		req := core.Requirement{MinObservations: *minObs, Coverage: *coverage}
		iv, err := core.CoarsestInterval(lifetimes, req)
		if err != nil {
			log.Fatalf("science requirement infeasible: %v", err)
		}
		fmt.Println()
		fmt.Printf("science requirement (%d obs for %.0f%% of eddies, mean life %g d): sample every %v\n",
			*minObs, *coverage*100, *eddyMeanDays, insituviz.Seconds(iv))
		for _, kind := range []insituviz.Kind{insituviz.PostProcessing, insituviz.InSitu} {
			s, err := model.Storage(kind, duration, insituviz.Seconds(iv))
			if err != nil {
				log.Fatal(err)
			}
			e, err := model.Energy(kind, duration, timestep, insituviz.Seconds(iv))
			if err != nil {
				log.Fatal(err)
			}
			fits := "fits"
			if s > budget {
				fits = "EXCEEDS"
			}
			fmt.Printf("  %-16v needs %v (%s the %v budget) and %v\n", kind, s, fits, budget, e)
		}
	}

	if *energyBudgetGJ > 0 {
		eb := insituviz.Joules(*energyBudgetGJ * 1e9)
		fmt.Println()
		for _, kind := range []insituviz.Kind{insituviz.PostProcessing, insituviz.InSitu} {
			iv, err := model.FinestIntervalUnderEnergyBudget(kind, duration, timestep, eb)
			if err != nil {
				fmt.Printf("%v: energy budget %g GJ is infeasible (%v)\n", kind, *energyBudgetGJ, err)
				continue
			}
			fmt.Printf("%v: finest sampling under %g GJ = one output every %v\n", kind, *energyBudgetGJ, iv)
		}
	}
}
