package hydraulic

import (
	"time"

	"github.com/aquascale/aquascale/internal/matrix"
	"github.com/aquascale/aquascale/internal/network"
)

// Lanes is how many emitter sets SolveSteadyFour solves together.
const Lanes = matrix.Lanes

// fourLanes is SolveSteadyFour's state: one Newton iterate per lane and
// the lane-major views of their buffers that the four-lane head-system
// factorization reads and writes.
type fourLanes struct {
	st       [Lanes]newton
	iters    [Lanes]int
	vals     [Lanes][]float64
	rhs      [Lanes][]float64
	newHead  [Lanes][]float64
	coeffs   [Lanes][]linkCoeffs
	live, ok [Lanes]bool
}

func (s *Solver) fourLanes() *fourLanes {
	if s.four == nil {
		f := &fourLanes{}
		for l := range f.st {
			st := &f.st[l]
			*st = s.newNewton()
			st.vals = make([]float64, s.sys.NNZ())
			f.vals[l], f.rhs[l], f.newHead[l] = st.vals, st.rhs, st.newHead
		}
		s.four = f
	}
	return s.four
}

// LaneState is a read-only view of one converged lane of the last
// SolveSteadyFour call. Its slices belong to the solver and are valid
// until the next SolveSteadyFour call on it.
type LaneState struct {
	// Head is hydraulic head per node (m), Flow volumetric flow per link
	// (m³/s): the bits Result.Head and Result.Flow of the equivalent
	// SolveSteady call hold.
	Head, Flow []float64

	// Iterations is the Newton iteration count the lane used.
	Iterations int

	net *network.Network
}

// PressureAt returns node i's pressure head, Head − Elevation: the value
// Result.Pressure[i] holds.
func (v LaneState) PressureAt(i int) float64 { return v.Head[i] - v.net.Nodes[i].Elevation }

// FlowAt returns link i's flow.
func (v LaneState) FlowAt(i int) float64 { return v.Flow[i] }

// PressureAt returns r.Pressure[i].
func (r *Result) PressureAt(i int) float64 { return r.Pressure[i] }

// FlowAt returns r.Flow[i].
func (r *Result) FlowAt(i int) float64 { return r.Flow[i] }

// SolveSteadyFour runs the first, cold attempt of SolveSteady(t,
// emitters[l], nil) for lanes l < live together: the lanes share the
// demand at t, the iteration-0 linearization and one four-lane
// factorization of the head system per Newton iteration; each has its
// own heads, flows, link coefficients, emitter aggregation and residual
// and runs exactly the scalar solve's statements, so a converged lane
// holds the bits SolveSteady would return. A lane that converges is
// frozen; the block iterates until every lane is done or MaxIterations
// is reached.
//
// ok[l] reports whether lane l converged; read it through Lane. A lane
// that failed — no convergence, a non-positive pivot, or an invalid
// emitter — is left for the caller to rerun with SolveSteadyRetry, which
// repeats this attempt bit for bit and then walks the retry ladder, so
// its errors, retries and telemetry are the scalar path's. With a
// failure hook installed every lane is reported failed, since the hook
// judges one scenario's attempts. Telemetry counts only converged lanes
// (one solve, its iterations and its factorizations each); the linear
// solve histogram records each live lane's share of every four-lane
// factorization. No allocation after the first call.
func (s *Solver) SolveSteadyFour(t time.Duration, emitters *[Lanes][]Emitter, live int) (ok [Lanes]bool) {
	if s.failHook != nil || s.sys == nil {
		return ok
	}
	f := s.fourLanes()
	s.stageTankHeadsMap(nil)
	s.demandsAt(t)
	active := 0
	for l := range f.st {
		f.live[l], f.ok[l] = false, false
		if l >= live || s.aggregate(&f.st[l], emitters[l]) != nil {
			continue
		}
		s.start(&f.st[l], false)
		f.live[l] = true
		active++
	}
	for iter := 0; iter < s.opts.MaxIterations && active > 0; iter++ {
		for l := range f.st {
			if f.live[l] {
				f.coeffs[l] = s.assemble(&f.st[l], iter, false)
			}
		}
		var t0 time.Time
		if s.hSolveSec != nil {
			t0 = time.Now()
		}
		failed := s.sys.FactorizeFour(&f.vals)
		if err := s.sys.SolveFour(&f.rhs, &f.newHead); err != nil {
			panic(err) // lane buffers are built to the system's dimension
		}
		if s.hSolveSec != nil {
			share := time.Since(t0).Seconds() / float64(active)
			for range active {
				s.hSolveSec.Observe(share)
			}
		}
		for l := range f.st {
			if !f.live[l] {
				continue
			}
			if failed&(1<<l) != 0 {
				f.live[l] = false
				active--
				continue
			}
			if s.finishIteration(&f.st[l], f.coeffs[l], iter, 1) {
				f.live[l], f.ok[l] = false, true
				f.iters[l] = iter + 1
				active--
				s.mFactor.Add(int64(iter + 1))
				s.mSolves.Inc()
				s.mIters.Add(int64(iter + 1))
				s.hIters.Observe(float64(iter + 1))
			}
		}
	}
	return f.ok
}

// Lane returns the converged lane l of the last SolveSteadyFour call.
func (s *Solver) Lane(l int) LaneState {
	f := s.four
	return LaneState{Head: f.st[l].head, Flow: f.st[l].flow, Iterations: f.iters[l], net: s.net}
}
