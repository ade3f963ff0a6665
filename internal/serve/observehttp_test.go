package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"
	"time"

	"github.com/aquascale/aquascale/internal/core"
	"github.com/aquascale/aquascale/internal/dataset"
	"github.com/aquascale/aquascale/internal/hydraulic"
	"github.com/aquascale/aquascale/internal/leak"
	"github.com/aquascale/aquascale/internal/network"
	"github.com/aquascale/aquascale/internal/sensor"
)

// hybridBed is an EPA-NET district deployed like the benchmark's
// observe-mix one (60% IoT by k-medoids, U(1,5) leaks, hybrid-rsl), with
// one features body and one readings body drawn from cold scenarios.
// Training uses 200 scenarios instead of 800 to keep set-up short.
var hybridBed struct {
	once     sync.Once
	err      error
	sys      *core.System
	features []byte
	readings []byte
}

func hybridDistrict() (*core.System, []byte, []byte, error) {
	hybridBed.once.Do(func() {
		hybridBed.err = func() error {
			net := network.BuildEPANet()
			base, err := hydraulic.RunEPS(net, hydraulic.EPSOptions{Duration: 6 * time.Hour, Step: time.Hour}, nil)
			if err != nil {
				return fmt.Errorf("baseline EPS: %w", err)
			}
			placer, err := sensor.NewPlacer(net, base)
			if err != nil {
				return err
			}
			sensors, err := placer.KMedoids(placer.CountForPercent(60), rand.New(rand.NewSource(5)))
			if err != nil {
				return err
			}
			multiLeak := leak.GeneratorConfig{MinEvents: 1, MaxEvents: 5}
			factory, err := dataset.NewFactory(net, sensors, dataset.Config{Noise: sensor.DefaultNoise, Leaks: multiLeak})
			if err != nil {
				return err
			}
			sys := core.NewSystem(factory, net, core.SystemConfig{})
			if err := sys.Train(200, core.ProfileConfig{Technique: core.TechniqueHybridRSL, Seed: 78},
				rand.New(rand.NewSource(12))); err != nil {
				return fmt.Errorf("train: %w", err)
			}
			rng := rand.New(rand.NewSource(24))
			sc, err := sys.GenerateColdScenario(multiLeak, rng)
			if err != nil {
				return err
			}
			obs, err := sys.Observe(sc, core.ObserveOptions{}, rng)
			if err != nil {
				return err
			}
			hour, temp := 7, 25.0
			quiet, err := sys.QuiescentBaseline(hour)
			if err != nil {
				return err
			}
			readings := make([]float64, len(quiet))
			for i := range readings {
				readings[i] = quiet[i] + obs.Features[i]
			}
			if hybridBed.features, err = json.Marshal(ObserveRequest{Features: obs.Features}); err != nil {
				return err
			}
			if hybridBed.readings, err = json.Marshal(ObserveRequest{Readings: readings, PatternHour: &hour, TemperatureF: &temp}); err != nil {
				return err
			}
			hybridBed.sys = sys
			return nil
		}()
	})
	return hybridBed.sys, hybridBed.features, hybridBed.readings, hybridBed.err
}

// BenchmarkObserveHTTP times one synchronous observe request through
// Server.Handler() without a socket: body read and decode, submit, queue,
// baseline memo (readings), compiled evaluation and the reply.
func BenchmarkObserveHTTP(b *testing.B) {
	sys, features, readings, err := hybridDistrict()
	if err != nil {
		b.Fatalf("district: %v", err)
	}
	s, err := New(sys, Config{})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	h := s.Handler()
	for _, bc := range []struct {
		name string
		body []byte
	}{{"features", features}, {"readings", readings}} {
		b.Run(bc.name, func(b *testing.B) {
			post := func() {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/observe?wait=1", bytes.NewReader(bc.body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("HTTP %d: %s", rec.Code, rec.Body.Bytes())
				}
			}
			post() // resolves the readings body's baseline memo
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post()
			}
		})
	}
}

// FuzzWaitFlag holds waitFlag to the url.Values lookup it replaces: for
// any raw query it answers what r.URL.Query().Get("wait") == "1" does.
func FuzzWaitFlag(f *testing.F) {
	for _, seed := range []string{
		"wait=1",
		"x=2&wait=1",
		"wait=0&wait=1",
		"w%61it=1",
		"wait=1;x",
		"wait=0;x&wait=1",
		"wait=%31",
		"wait=%zz&wait=1",
		"",
		"wait",
		"wait=1&",
		"&&wait=+1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, rawQuery string) {
		want := (&url.URL{RawQuery: rawQuery}).Query().Get("wait") == "1"
		if got := waitFlag(rawQuery); got != want {
			t.Fatalf("waitFlag(%q) = %v, url.Values says %v", rawQuery, got, want)
		}
	})
}
