// Coldsnap: the weather storyline behind the paper's Fig 3 and the
// freeze→burst failure model.
//
// Synthesizes a week of winter weather with a deep cold snap, tracks the
// expected pipe-break rate as temperature falls, and — once the snap
// crosses the 20 °F freeze threshold — samples which pipes freeze and
// burst, then shows how Bayesian fusion of freeze evidence (eqs. 5–6)
// sharpens uncertain leak beliefs.
//
// Run with: go run ./examples/coldsnap
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"github.com/aquascale/aquascale"
)

func main() {
	rng := rand.New(rand.NewSource(42))

	// A week of winter weather; day 4 brings a polar cold snap.
	series, err := aquascale.NewWeatherSeries(aquascale.WeatherSeriesConfig{
		Duration:      7 * 24 * time.Hour,
		Step:          time.Hour,
		MeanF:         33,
		DiurnalAmpF:   9,
		ColdSnapStart: 3 * 24 * time.Hour,
		ColdSnapEnd:   5 * 24 * time.Hour,
		ColdSnapDropF: 22,
	}, rng)
	if err != nil {
		log.Fatal(err)
	}

	breakModel := aquascale.BreakRateModel{}
	fmt.Println("day  min temp  expected breaks/day  freeze risk")
	var snapDay time.Duration = -1
	for day := 0; day < 7; day++ {
		minT := 999.0
		for h := 0; h < 24; h++ {
			t := time.Duration(day)*24*time.Hour + time.Duration(h)*time.Hour
			if v := series.At(t); v < minT {
				minT = v
			}
		}
		risk := "-"
		if minT <= aquascale.FreezeThresholdF {
			risk = "FREEZE"
			if snapDay < 0 {
				snapDay = time.Duration(day) * 24 * time.Hour
			}
		}
		fmt.Printf("%3d  %7.1fF  %18.2f  %s\n", day+1, minT, breakModel.Rate(minT), risk)
	}
	if snapDay < 0 {
		log.Fatal("no freeze day generated; adjust the cold snap")
	}

	// The snap arrives: sample which service pipes freeze and burst.
	net := aquascale.BuildEPANet()
	freeze := aquascale.DefaultFreezeModel
	frozen, burst := 0, 0
	var firstBurst string
	for _, v := range net.JunctionIndices() {
		if !freeze.SampleFrozen(series.At(snapDay+5*time.Hour), rng) {
			continue
		}
		frozen++
		if rng.Float64() < freeze.PLeakGivenFreeze {
			burst++
			if firstBurst == "" {
				firstBurst = net.Nodes[v].ID
			}
		}
	}
	fmt.Printf("\ncold snap on %s: %d/%d junction pipes frozen, %d would burst without intervention\n",
		net.Name, frozen, net.JunctionCount(), burst)
	fmt.Printf("first burst candidate: %s\n\n", firstBurst)

	// Freeze evidence sharpens uncertain IoT beliefs (Algorithm 2, l.7-11).
	fmt.Println("IoT leak belief -> fused with p(leak|freeze)=0.9 at a frozen node")
	for _, p := range []float64{0.10, 0.30, 0.45, 0.60} {
		fused := aquascale.FuseOdds(p, freeze.PLeakGivenFreeze)
		marker := ""
		if p <= 0.5 && fused > 0.5+1e-9 {
			marker = "   <- crosses the detection threshold"
		}
		fmt.Printf("  %.2f -> %.2f%s\n", p, fused, marker)
	}
}
