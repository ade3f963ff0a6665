package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"time"

	"github.com/aquascale/aquascale/internal/core"
	"github.com/aquascale/aquascale/internal/telemetry"
)

// District is one member of a Fleet: a trained System served under an
// id. The id names the district in URLs (/v1/districts/{id}/...) and in
// telemetry labels, so it is restricted to [a-zA-Z0-9_.-].
type District struct {
	ID  string
	Sys *core.System
}

// Fleet hosts many districts' localization services in one process —
// one aquad serving N district metered areas. Each district gets its own
// Server (compiled profile, bounded queue, result window, flight
// recorder) carved from one shared worker budget, so a hot district can
// saturate only its own pool and never starve a sibling. Districts
// hot-swap profiles and drain independently; Handler routes by district
// id and adds a fleet-wide status endpoint.
type Fleet struct {
	servers map[string]*Server
	ids     []string // district ids, sorted
	workers int      // total budget actually allotted
	log     *slog.Logger
	start   time.Time
}

// NewFleet builds one Server per district over a shared Config and
// starts every pool. cfg.Workers is the fleet-wide worker budget: each
// district receives an equal share (remainder to the first districts in
// id order), never less than one worker — hard isolation is the
// fairness mechanism. Every other Config field applies to each district
// as-is (per-district queue of cfg.QueueSize, its own trace buffer, and
// so on).
func NewFleet(districts []District, cfg Config) (*Fleet, error) {
	if len(districts) == 0 {
		return nil, fmt.Errorf("serve: fleet needs at least one district")
	}
	byID := make(map[string]District, len(districts))
	ids := make([]string, 0, len(districts))
	for _, d := range districts {
		if !validDistrictID(d.ID) {
			return nil, fmt.Errorf("serve: bad district id %q (want [a-zA-Z0-9_.-]+)", d.ID)
		}
		if _, dup := byID[d.ID]; dup {
			return nil, fmt.Errorf("serve: duplicate district id %q", d.ID)
		}
		byID[d.ID] = d
		ids = append(ids, d.ID)
	}
	sort.Strings(ids)

	cfg = cfg.withDefaults()
	share := cfg.Workers / len(ids)
	rem := cfg.Workers % len(ids)
	f := &Fleet{
		servers: make(map[string]*Server, len(ids)),
		ids:     ids,
		log:     cfg.Logger,
		start:   time.Now(),
	}
	for i, id := range ids {
		dcfg := cfg
		dcfg.Workers = share
		if i < rem {
			dcfg.Workers++
		}
		if dcfg.Workers < 1 {
			dcfg.Workers = 1 // every district keeps at least one worker
		}
		srv, err := newServer(byID[id].Sys, dcfg, id)
		if err != nil {
			// Unwind the pools already started so a partial fleet never
			// leaks goroutines.
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			for _, started := range f.servers {
				_ = started.Shutdown(ctx)
			}
			cancel()
			return nil, fmt.Errorf("serve: district %q: %w", id, err)
		}
		f.servers[id] = srv
		f.workers += dcfg.Workers
	}
	return f, nil
}

func validDistrictID(id string) bool {
	if id == "" {
		return false
	}
	for _, r := range id {
		ok := r == '_' || r == '.' || r == '-' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// District returns the named district's server (nil when unknown).
func (f *Fleet) District(id string) *Server { return f.servers[id] }

// Districts returns the fleet's district ids in sorted order.
func (f *Fleet) Districts() []string {
	out := make([]string, len(f.ids))
	copy(out, f.ids)
	return out
}

// Workers returns the total worker count across every district pool.
func (f *Fleet) Workers() int { return f.workers }

// Shutdown drains every district concurrently (each drain refuses new
// submissions, finishes in-flight jobs, and fails queued ones with
// ErrDraining). The first per-district error is joined per district id.
func (f *Fleet) Shutdown(ctx context.Context) error {
	errc := make(chan error, len(f.ids))
	for _, id := range f.ids {
		go func(id string, srv *Server) {
			if err := srv.Shutdown(ctx); err != nil {
				errc <- fmt.Errorf("serve: district %q drain: %w", id, err)
				return
			}
			errc <- nil
		}(id, f.servers[id])
	}
	var errs []error
	for range f.ids {
		if err := <-errc; err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// FleetStatus is the fleet-wide health snapshot behind GET /v1/status.
type FleetStatus struct {
	Districts     []string `json:"districts"`
	Workers       int      `json:"workers"`
	UptimeSeconds float64  `json:"uptime_seconds"`
	PerDistrict   []Status `json:"per_district"`
}

// Status aggregates every district's snapshot, ordered by district id.
func (f *Fleet) Status() FleetStatus {
	fs := FleetStatus{
		Districts:     f.Districts(),
		Workers:       f.workers,
		UptimeSeconds: time.Since(f.start).Seconds(),
		PerDistrict:   make([]Status, 0, len(f.ids)),
	}
	for _, id := range f.ids {
		fs.PerDistrict = append(fs.PerDistrict, f.servers[id].Status())
	}
	return fs
}

// Handler returns the fleet's HTTP mux: the single-district API nested
// under /v1/districts/{district}/..., plus
//
//	GET  /v1/status                           fleet-wide snapshot
//	POST /v1/districts/{district}/drain       drain one district, leaving
//	                                          siblings serving
//	GET  /v1/districts/{district}/requests    that district's flight
//	                                          recorder
//	/metrics, /metrics.json, /debug/...       shared telemetry registry
//	                                          (district-labeled series)
func (f *Fleet) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, f.Status())
	})
	mux.HandleFunc("POST /v1/districts/{district}/observe", f.byDistrict((*Server).handleObserve))
	mux.HandleFunc("GET /v1/districts/{district}/localize/{job}", f.byDistrict((*Server).handleLocalize))
	mux.HandleFunc("GET /v1/districts/{district}/trace/{job}", f.byDistrict((*Server).handleTrace))
	mux.HandleFunc("GET /v1/districts/{district}/status", f.byDistrict((*Server).handleStatus))
	mux.HandleFunc("POST /v1/districts/{district}/profile", f.byDistrict((*Server).handleProfile))
	mux.HandleFunc("GET /v1/districts/{district}/requests", f.byDistrict((*Server).handleDebugRequests))
	mux.HandleFunc("POST /v1/districts/{district}/drain", f.handleDrain)
	if h := telemetry.Default().Handler(); h != nil {
		mux.Handle("/metrics", h)
		mux.Handle("/metrics.json", h)
		mux.Handle("/debug/", h)
	}
	return accessLog(f.log, mux)
}

// byDistrict adapts a Server handler method onto the fleet routes,
// resolving the {district} wildcard; an unknown id answers 404.
func (f *Fleet) byDistrict(h func(*Server, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("district")
		srv := f.servers[id]
		if srv == nil {
			writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown district %q", id))
			return
		}
		h(srv, w, r)
	}
}

// handleDrain drains one district under the request's context and
// reports when its pool has fully exited. Sibling districts keep
// serving; draining an already-drained district is a no-op success.
func (f *Fleet) handleDrain(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("district")
	srv := f.servers[id]
	if srv == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown district %q", id))
		return
	}
	if err := srv.Shutdown(r.Context()); err != nil {
		writeError(w, http.StatusGatewayTimeout, fmt.Errorf("serve: district %q drain: %w", id, err))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "drained", "district": id})
}
