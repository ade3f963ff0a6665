package hydraulic

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/aquascale/aquascale/internal/matrix"
	"github.com/aquascale/aquascale/internal/network"
	"github.com/aquascale/aquascale/internal/telemetry"
)

// ErrNotConverged is returned when the Newton iteration exhausts its
// iteration budget without meeting the accuracy target.
var ErrNotConverged = errors.New("hydraulic: solver did not converge")

// ConvergenceError is the concrete error SolveSteady returns on
// non-convergence. It wraps ErrNotConverged — errors.Is(err,
// ErrNotConverged) keeps working — and carries the failure context so
// callers and metrics can distinguish failure modes (budget too small vs.
// genuinely oscillating vs. near-singular late iterations).
type ConvergenceError struct {
	// Iterations is the Newton iteration count consumed.
	Iterations int

	// Residual is the last observed convergence ratio Σ|ΔQ| / Σ|Q|
	// (+Inf if no flow update completed).
	Residual float64

	// SimTime is the elapsed simulation time of the failing solve — the
	// demand-pattern instant, which locates the failure within an EPS run.
	SimTime time.Duration

	// Injected marks failures forced by a fault-injection hook (see
	// SetFailureHook) rather than produced by the Newton iteration. An
	// injected attempt never iterates, so it leaves no iterate for the
	// next attempt to warm-start from.
	Injected bool
}

func (e *ConvergenceError) Error() string {
	if e.Injected {
		return fmt.Sprintf("%v (injected fault, sim time %v)", ErrNotConverged, e.SimTime)
	}
	return fmt.Sprintf("%v after %d iterations (residual %.3g, sim time %v)",
		ErrNotConverged, e.Iterations, e.Residual, e.SimTime)
}

// Unwrap keeps errors.Is(err, ErrNotConverged) true.
func (e *ConvergenceError) Unwrap() error { return ErrNotConverged }

// Options configures the steady-state solver.
type Options struct {
	// Accuracy is the convergence target on Σ|ΔQ| / Σ|Q| per iteration.
	// Zero means the EPANET default of 1e-3.
	Accuracy float64

	// MaxIterations bounds the Newton loop. Zero means 200.
	MaxIterations int

	// EmitterExponent is β in Q = EC·p^β. Zero means the paper's 0.5.
	EmitterExponent float64

	// PressureDriven enables Wagner pressure-driven demand: delivered
	// demand scales with √((p−Pmin)/(Pref−Pmin)), clamped to [0, 1].
	// Demand-driven analysis (the default, and EPANET's) assumes full
	// delivery regardless of pressure, which overstates consumption when
	// severe multi-leak events depress service pressure.
	PressureDriven bool

	// MinPressure is the head below which no demand is delivered (m).
	// Used only with PressureDriven; default 0.
	MinPressure float64

	// RefPressure is the head at which full demand is delivered (m).
	// Used only with PressureDriven; zero means 20.
	RefPressure float64
}

func (o Options) withDefaults() Options {
	if o.Accuracy <= 0 {
		o.Accuracy = 1e-3
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = 200
	}
	if o.EmitterExponent <= 0 {
		o.EmitterExponent = 0.5
	}
	if o.RefPressure <= o.MinPressure {
		o.RefPressure = o.MinPressure + 20
	}
	return o
}

// wagner returns the delivered-demand fraction g(p) and its derivative
// dg/dp for the Wagner pressure-demand relationship.
func wagner(p, pMin, pRef float64) (g, dg float64) {
	switch {
	case p <= pMin:
		return 0, 0
	case p >= pRef:
		return 1, 0
	default:
		span := pRef - pMin
		g = math.Sqrt((p - pMin) / span)
		if g < 0.05 {
			g = 0.05 // keep the Newton derivative bounded near pMin
		}
		return g, 0.5 / (span * g)
	}
}

// Emitter is a pressure-dependent discharge at a node: Q = Coeff·p^β where
// p is the pressure head above the node elevation. This is the paper's leak
// model (eq. 1); Coeff is the effective leak area EC (the leak size e.s).
type Emitter struct {
	Node  int     // node index
	Coeff float64 // EC, in m³/s per m^β of pressure head
}

// Result is a steady-state hydraulic snapshot.
type Result struct {
	// Head is hydraulic head per node (m).
	Head []float64

	// Pressure is pressure head per node: Head − Elevation (m). Fixed-grade
	// nodes report level above their base.
	Pressure []float64

	// Flow is volumetric flow per link (m³/s), positive From→To. Closed
	// links carry zero.
	Flow []float64

	// EmitterFlow is leak outflow per node index (only emitter nodes).
	EmitterFlow map[int]float64

	// Demand is the consumer demand per node used in this solve (m³/s).
	Demand []float64

	// Iterations is the Newton iteration count used.
	Iterations int
}

// TotalEmitterFlow sums all leak outflow in m³/s. Summation runs in
// ascending node order so the float total is reproducible — Go map
// iteration order would otherwise vary it at the last bit.
func (r *Result) TotalEmitterFlow() float64 {
	nodes := make([]int, 0, len(r.EmitterFlow))
	for n := range r.EmitterFlow {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	total := 0.0
	for _, n := range nodes {
		total += r.EmitterFlow[n]
	}
	return total
}

// Solver solves steady-state hydraulics for one network. It precomputes
// topology indexes and link resistances; it is safe for sequential reuse
// across many solves (scenario generation), but not for concurrent use —
// clone one Solver per goroutine.
type Solver struct {
	net  *network.Network
	opts Options

	junctionOf []int // node index → junction ordinal, -1 for fixed grade
	junctions  []int // junction ordinal → node index
	resistance []float64
	minorRes   []float64

	// Head system and its precomputed assembly slots: diagSlot[j] for
	// junction ordinal j, linkSlot[li] for the off-diagonal pair of link
	// li (-1 when an endpoint is fixed-grade). Resolving slots here keeps
	// the Newton loop free of index arithmetic and map lookups.
	sys      *matrix.SparseSPD
	diagSlot []int
	linkSlot []int

	// Scratch buffers reused across solves. The emitter aggregation and
	// tank-head staging are index-sorted parallel slices, not maps:
	// assembly never iterates a Go map, so float accumulation order — and
	// with it bit-level reproducibility — is fixed by construction.
	flow       []float64
	head       []float64
	diag       []float64
	rhs        []float64
	newHead    []float64
	demand     []float64
	emitNodes  []int     // ascending node indices of active emitters
	emitCoeffs []float64 // aggregated coefficients, parallel to emitNodes
	tankNodes  []int     // ascending node indices of tanks
	tankHead   []float64 // staged tank heads, parallel to tankNodes
	tankOrd    []int     // node index → tank ordinal, -1 otherwise

	// coeffs holds each open link's linearization for the current Newton
	// iteration: read by assembly and again by the flow update.
	coeffs []linkCoeffs

	// Open pipes and valves (ascending) are linearized together, so their
	// |Q|^0.852 runs through one batched Exp (hwPowTo) with aq and hw as
	// scratch parallel to pipes; open pumps are evaluated one by one.
	pipes []int
	pumps []int
	aq    []float64
	hw    []float64

	// flow0 and coeffs0 are every cold solve's starting flows and their
	// linearization, so iteration 0 evaluates no link.
	flow0   []float64
	coeffs0 []linkCoeffs

	// demandAt is the simulation time s.demand holds junction demands
	// for; demandOK is false until the first solve fills them.
	demandAt time.Duration
	demandOK bool

	// failHook, when set, is consulted at the top of every solve attempt;
	// returning true fails the attempt immediately with an injected
	// ConvergenceError. Fault-injection only (see the faults package).
	failHook func(t time.Duration, attempt int) bool

	// Telemetry handles, bound once at construction from the registry
	// active at that moment; nil (free no-ops) when telemetry is off.
	mSolves     *telemetry.Counter
	mIters      *telemetry.Counter
	mFailures   *telemetry.Counter
	mInjected   *telemetry.Counter
	mRetries    *telemetry.Counter
	mRecoveries *telemetry.Counter
	mWarm       *telemetry.Counter
	mFactor     *telemetry.Counter
	hIters      *telemetry.Histogram
	hSolveSec   *telemetry.Histogram
}

// NewSolver prepares a solver for the given network. The network is
// validated; the solver reads (never mutates) it afterwards, and it must
// not change while the solver is in use: resistances, the open-link
// lists, the starting linearization and the last solve's junction
// demands are cached.
func NewSolver(net *network.Network, opts Options) (*Solver, error) {
	if err := net.Validate(); err != nil {
		return nil, fmt.Errorf("hydraulic: %w", err)
	}
	s := &Solver{
		net:        net,
		opts:       opts.withDefaults(),
		junctionOf: make([]int, len(net.Nodes)),
		resistance: make([]float64, len(net.Links)),
		minorRes:   make([]float64, len(net.Links)),
	}
	for i := range net.Nodes {
		if net.Nodes[i].Type == network.Junction {
			s.junctionOf[i] = len(s.junctions)
			s.junctions = append(s.junctions, i)
		} else {
			s.junctionOf[i] = -1
		}
	}
	for i := range net.Links {
		l := &net.Links[i]
		if l.Type != network.Pump {
			s.resistance[i] = pipeResistance(l)
			s.minorRes[i] = minorResistance(l)
		}
		if l.Type == network.Valve {
			// Valves are short devices: friction is negligible, the
			// setting acts through the minor-loss term. Keep a small
			// linear floor so an all-zero valve still has a gradient.
			s.resistance[i] = 1e-4
		}
	}
	nj := len(s.junctions)
	s.flow = make([]float64, len(net.Links))
	s.head = make([]float64, len(net.Nodes))
	s.diag = make([]float64, nj)
	s.rhs = make([]float64, nj)
	s.newHead = make([]float64, nj)
	s.demand = make([]float64, len(net.Nodes))
	s.coeffs = make([]linkCoeffs, len(net.Links))
	s.flow0 = make([]float64, len(net.Links))
	for i := range net.Links {
		l := &net.Links[i]
		switch {
		case l.Status == network.Closed:
			continue
		case l.Type == network.Pump:
			s.pumps = append(s.pumps, i)
		default:
			s.pipes = append(s.pipes, i)
		}
		s.flow0[i] = initialFlow(l)
	}
	s.aq = make([]float64, len(s.pipes))
	s.hw = make([]float64, len(s.pipes))
	s.coeffs0 = make([]linkCoeffs, len(net.Links))
	s.linearize(s.flow0, s.coeffs0)

	// Tank staging: ascending node order, resolved once.
	s.tankOrd = make([]int, len(net.Nodes))
	for i := range net.Nodes {
		s.tankOrd[i] = -1
		if net.Nodes[i].Type == network.Tank {
			s.tankOrd[i] = len(s.tankNodes)
			s.tankNodes = append(s.tankNodes, i)
		}
	}
	s.tankHead = make([]float64, len(s.tankNodes))

	// Head system: the junction-to-junction coupling pattern is one pair
	// per link whose endpoints are both junctions (parallel links share a
	// slot). Symbolic work — ordering, elimination tree, factor layout —
	// happens here, once per network; every Newton iteration afterwards
	// only assembles and refactorizes numerically.
	if nj > 0 {
		var pairs [][2]int
		for i := range net.Links {
			jf := s.junctionOf[net.Links[i].From]
			jt := s.junctionOf[net.Links[i].To]
			if jf >= 0 && jt >= 0 {
				pairs = append(pairs, [2]int{jf, jt})
			}
		}
		var err error
		s.sys, err = matrix.NewSparseSPD(nj, pairs)
		if err != nil {
			return nil, fmt.Errorf("hydraulic: %w", err)
		}
		s.diagSlot = make([]int, nj)
		for j := 0; j < nj; j++ {
			s.diagSlot[j] = s.sys.DiagSlot(j)
		}
		s.linkSlot = make([]int, len(net.Links))
		for i := range net.Links {
			jf := s.junctionOf[net.Links[i].From]
			jt := s.junctionOf[net.Links[i].To]
			s.linkSlot[i] = -1
			if jf >= 0 && jt >= 0 {
				s.linkSlot[i] = s.sys.PairSlot(jf, jt)
			}
		}
	}

	reg := telemetry.Default()
	s.mSolves = reg.Counter("hydraulic_solves_total")
	s.mIters = reg.Counter("hydraulic_newton_iterations_total")
	s.mFailures = reg.Counter("hydraulic_convergence_failures_total")
	s.mInjected = reg.Counter("hydraulic_injected_failures_total")
	s.mRetries = reg.Counter("hydraulic_retries_total")
	s.mRecoveries = reg.Counter("hydraulic_retry_recoveries_total")
	s.mWarm = reg.Counter("hydraulic_warm_restarts_total")
	s.mFactor = reg.Counter("hydraulic_numeric_factorizations_total")
	s.hIters = reg.Histogram("hydraulic_iterations_per_solve", telemetry.LinearBuckets(5, 5, 10))
	s.hSolveSec = reg.Histogram("hydraulic_linear_solve_seconds", telemetry.ExpBuckets(1e-6, 4, 12))
	if s.sys != nil {
		reg.Counter("hydraulic_symbolic_factorizations_total").Inc()
		reg.Gauge("hydraulic_factor_fill_ratio").Set(float64(s.sys.FactorNNZ()) / float64(s.sys.NNZ()))
	}
	return s, nil
}

// TankNodes returns the tank node indices in ascending order — the layout
// of the heads slice SolveSteadyHeads and SolveSteadyRetryHeads consume.
func (s *Solver) TankNodes() []int {
	out := make([]int, len(s.tankNodes))
	copy(out, s.tankNodes)
	return out
}

// stageTankHeadsMap loads per-solve tank head overrides from the map API
// into the staged slice; nodes absent from the map default to elevation +
// initial level.
func (s *Solver) stageTankHeadsMap(overrides map[int]float64) {
	for k, ti := range s.tankNodes {
		node := &s.net.Nodes[ti]
		h := node.Elevation + node.InitLevel
		if v, ok := overrides[ti]; ok {
			h = v
		}
		s.tankHead[k] = h
	}
}

// stageTankHeadsSlice loads overrides aligned with TankNodes; nil means
// all defaults.
func (s *Solver) stageTankHeadsSlice(heads []float64) error {
	if heads == nil {
		s.stageTankHeadsMap(nil)
		return nil
	}
	if len(heads) != len(s.tankNodes) {
		return fmt.Errorf("hydraulic: tank heads length %d, want %d", len(heads), len(s.tankNodes))
	}
	copy(s.tankHead, heads)
	return nil
}

// SetFailureHook installs (or, with nil, removes) a fault-injection
// predicate consulted at the top of every solve attempt with the solve's
// simulation time and the attempt number (0 for the first attempt, k for
// the k-th retry). When it returns true the attempt fails immediately with
// a ConvergenceError marked Injected, without touching solver state. It
// exists for the faults package and retry-path tests; production code
// never sets it.
func (s *Solver) SetFailureHook(fn func(t time.Duration, attempt int) bool) {
	s.failHook = fn
}

// Network returns the network this solver was built for.
func (s *Solver) Network() *network.Network { return s.net }

// SolveSteady computes a steady-state snapshot at elapsed time t (which
// selects demand-pattern multipliers), with the given active emitters and
// optional tank head overrides (node index → hydraulic head). Tank heads
// default to elevation + initial level when not overridden.
func (s *Solver) SolveSteady(t time.Duration, emitters []Emitter, tankHeads map[int]float64) (*Result, error) {
	s.stageTankHeadsMap(tankHeads)
	return s.solveOnce(t, emitters, 0, false, 1)
}

// SolveSteadyHeads is SolveSteady with tank head overrides as a slice
// aligned with TankNodes (nil means all defaults) — the allocation- and
// map-free form the EPS loop uses.
func (s *Solver) SolveSteadyHeads(t time.Duration, emitters []Emitter, tankHeads []float64) (*Result, error) {
	if err := s.stageTankHeadsSlice(tankHeads); err != nil {
		return nil, err
	}
	return s.solveOnce(t, emitters, 0, false, 1)
}

// solveOnce is one solve attempt against the staged tank heads. attempt
// numbers the attempt within a retry ladder (0 = first); warm keeps the
// head/flow iterate left by the previous attempt instead of cold-starting
// from the fixed initial guesses; relax is the Newton flow-update fraction
// (1 = the standard full step, smaller = stronger damping). SolveSteady
// always passes (0, false, 1), so cold solves stay independent of any
// earlier solve on the same Solver — the bit-identical session-reuse
// guarantee the dataset layer documents.
func (s *Solver) solveOnce(t time.Duration, emitters []Emitter, attempt int, warm bool, relax float64) (*Result, error) {
	if s.failHook != nil && s.failHook(t, attempt) {
		s.mInjected.Inc()
		return nil, &ConvergenceError{Residual: math.Inf(1), SimTime: t, Injected: true}
	}
	net := s.net
	beta := s.opts.EmitterExponent

	// Junction demands depend only on t (the network does not change
	// after NewSolver), so a solve at the previous solve's t reuses them.
	if !s.demandOK || t != s.demandAt {
		for _, i := range s.junctions {
			s.demand[i] = net.DemandAt(i, t)
		}
		s.demandAt, s.demandOK = t, true
	}

	// Fixed heads. A warm attempt keeps the previous attempt's junction
	// heads (and link flows, below) as its starting iterate.
	for i := range net.Nodes {
		node := &net.Nodes[i]
		switch node.Type {
		case network.Junction:
			if !warm {
				s.head[i] = node.Elevation + 30 // initial guess
			}
		case network.Reservoir:
			s.head[i] = node.Elevation
		case network.Tank:
			s.head[i] = s.tankHead[s.tankOrd[i]]
		}
	}

	// Aggregate emitter coefficients per node (multiple concurrent leaks
	// at one node sum their effective areas) into index-sorted slices, so
	// the linearization loop below runs in fixed node order.
	s.emitNodes = s.emitNodes[:0]
	s.emitCoeffs = s.emitCoeffs[:0]
	for _, e := range emitters {
		if e.Node < 0 || e.Node >= len(net.Nodes) {
			return nil, fmt.Errorf("hydraulic: emitter node %d out of range", e.Node)
		}
		if e.Coeff < 0 {
			return nil, fmt.Errorf("hydraulic: negative emitter coefficient %v at node %d", e.Coeff, e.Node)
		}
		k := sort.SearchInts(s.emitNodes, e.Node)
		if k < len(s.emitNodes) && s.emitNodes[k] == e.Node {
			s.emitCoeffs[k] += e.Coeff
			continue
		}
		s.emitNodes = append(s.emitNodes, 0)
		s.emitCoeffs = append(s.emitCoeffs, 0)
		copy(s.emitNodes[k+1:], s.emitNodes[k:])
		copy(s.emitCoeffs[k+1:], s.emitCoeffs[k:])
		s.emitNodes[k] = e.Node
		s.emitCoeffs[k] = e.Coeff
	}

	// Initial flows (closed links carry zero throughout).
	if !warm {
		copy(s.flow, s.flow0)
	}

	nj := len(s.junctions)
	converged := false
	iter := 0
	residual := math.Inf(1)
	for ; iter < s.opts.MaxIterations; iter++ {
		s.sys.Reset()
		for j := 0; j < nj; j++ {
			s.rhs[j] = 0
			s.diag[j] = 0
		}

		// Node balance contributions from demand. Under pressure-driven
		// analysis the delivered demand depends on head, so it is
		// linearized per Newton iteration like the emitters.
		for j, nodeIdx := range s.junctions {
			d := s.demand[nodeIdx]
			if !s.opts.PressureDriven || d == 0 {
				s.rhs[j] -= d
				continue
			}
			p := s.head[nodeIdx] - net.Nodes[nodeIdx].Elevation
			g, dg := wagner(p, s.opts.MinPressure, s.opts.RefPressure)
			delivered := d * g
			dd := d * dg
			s.diag[j] += dd
			s.rhs[j] += -delivered + dd*s.head[nodeIdx]
		}

		// Link contributions. Each open link is linearized once per
		// iteration; the flow update below reads the same coefficients
		// back, since the flow has not moved in between. A cold solve's
		// first iteration starts from flow0, linearized in NewSolver.
		coeffs := s.coeffs
		if iter == 0 && !warm {
			coeffs = s.coeffs0
		} else {
			s.linearize(s.flow, coeffs)
		}
		for li := range net.Links {
			l := &net.Links[li]
			if l.Status == network.Closed {
				continue
			}
			c := coeffs[li]
			y := c.p * c.h // flow correction term
			jf := s.junctionOf[l.From]
			jt := s.junctionOf[l.To]

			// Continuity: flow From→To leaves From, enters To. The
			// junction-junction coupling goes straight to its precomputed
			// slot (one slot per symmetric pair).
			if jf >= 0 {
				s.diag[jf] += c.p
				s.rhs[jf] -= s.flow[li] - y // outflow
				if jt < 0 {
					s.rhs[jf] += c.p * s.head[l.To]
				}
			}
			if jt >= 0 {
				s.diag[jt] += c.p
				s.rhs[jt] += s.flow[li] - y // inflow
				if jf < 0 {
					s.rhs[jt] += c.p * s.head[l.From]
				}
			}
			if slot := s.linkSlot[li]; slot >= 0 {
				s.sys.Add(slot, -c.p)
			}
		}

		// Emitters: Newton linearization of Q = EC·p^β around current head.
		for k, nodeIdx := range s.emitNodes {
			coeff := s.emitCoeffs[k]
			j := s.junctionOf[nodeIdx]
			if j < 0 || coeff == 0 {
				continue // emitters at fixed-grade nodes discharge freely; ignore
			}
			elev := net.Nodes[nodeIdx].Elevation
			p := s.head[nodeIdx] - elev
			if p <= 0 {
				// No discharge; tiny derivative keeps the system stable
				// if the head rises above elevation next iteration.
				s.diag[j] += 1e-9
				continue
			}
			q := coeff * math.Pow(p, beta)
			dq := beta * coeff * math.Pow(p, beta-1)
			// Newton step on the outflow Q(H) ≈ q0 + dq·(H − H0):
			// the dq·H term joins the diagonal, the rest joins the RHS.
			s.diag[j] += dq
			s.rhs[j] += -q + dq*s.head[nodeIdx]
		}

		for j := 0; j < nj; j++ {
			s.sys.Add(s.diagSlot[j], s.diag[j])
		}

		var t0 time.Time
		if s.hSolveSec != nil {
			t0 = time.Now()
		}
		err := s.sys.Factorize()
		if err == nil {
			err = s.sys.Solve(s.rhs, s.newHead)
		}
		if err != nil {
			return nil, fmt.Errorf("hydraulic: head solve at iteration %d: %w", iter, err)
		}
		s.mFactor.Inc()
		if s.hSolveSec != nil {
			s.hSolveSec.Observe(time.Since(t0).Seconds())
		}
		for j, nodeIdx := range s.junctions {
			s.head[nodeIdx] = s.newHead[j]
		}

		// Flow update and convergence check.
		sumDQ, sumQ := 0.0, 0.0
		for li := range net.Links {
			l := &net.Links[li]
			if l.Status == network.Closed {
				continue
			}
			c := coeffs[li]
			dh := s.head[l.From] - s.head[l.To]
			newQ := s.flow[li] - c.p*c.h + c.p*dh
			step := relax
			if iter >= 20 {
				// Damp late iterations to break Hazen-Williams flow
				// oscillations (EPANET applies the same relaxation).
				step *= 0.6
			}
			if step != 1 {
				newQ = s.flow[li] + step*(newQ-s.flow[li])
			}
			sumDQ += math.Abs(newQ - s.flow[li])
			sumQ += math.Abs(newQ)
			s.flow[li] = newQ
		}
		if sumQ > 0 {
			residual = sumDQ / sumQ
		}
		if sumQ > 0 && residual < s.opts.Accuracy {
			converged = true
			iter++
			break
		}
	}
	if !converged {
		s.mFailures.Inc()
		return nil, &ConvergenceError{Iterations: iter, Residual: residual, SimTime: t}
	}
	s.mSolves.Inc()
	s.mIters.Add(int64(iter))
	s.hIters.Observe(float64(iter))
	return s.buildResult(beta, iter), nil
}

// linearize writes coeffs[li] for every open link li at flow[li]: the
// pipes and valves through one batched Exp (hwPowTo), then the pumps.
func (s *Solver) linearize(flow []float64, coeffs []linkCoeffs) {
	for k, li := range s.pipes {
		aq := math.Abs(flow[li])
		if aq < qSmall {
			aq = qSmall
		}
		s.aq[k] = aq
	}
	hwPowTo(s.hw, s.aq)
	for k, li := range s.pipes {
		coeffs[li] = pipeCoeffs(s.resistance[li], s.minorRes[li], flow[li], s.aq[k], s.hw[k])
	}
	for _, li := range s.pumps {
		coeffs[li] = evalPump(&s.net.Links[li], flow[li])
	}
}

func (s *Solver) buildResult(beta float64, iterations int) *Result {
	net := s.net
	res := &Result{
		Head:        matrix.Clone(s.head),
		Pressure:    make([]float64, len(net.Nodes)),
		Flow:        matrix.Clone(s.flow),
		EmitterFlow: make(map[int]float64, len(s.emitNodes)),
		Demand:      matrix.Clone(s.demand),
		Iterations:  iterations,
	}
	for i := range net.Nodes {
		res.Pressure[i] = s.head[i] - net.Nodes[i].Elevation
	}
	if s.opts.PressureDriven {
		// Report delivered (not required) demand.
		for i := range net.Nodes {
			if net.Nodes[i].Type == network.Junction && s.demand[i] > 0 {
				g, _ := wagner(res.Pressure[i], s.opts.MinPressure, s.opts.RefPressure)
				res.Demand[i] = s.demand[i] * g
			}
		}
	}
	for k, nodeIdx := range s.emitNodes {
		p := res.Pressure[nodeIdx]
		if p <= 0 {
			res.EmitterFlow[nodeIdx] = 0
			continue
		}
		res.EmitterFlow[nodeIdx] = s.emitCoeffs[k] * math.Pow(p, beta)
	}
	return res
}

// MassBalanceError returns the worst junction continuity residual of a
// result (m³/s): |Σ inflow − Σ outflow − demand − leak| maximized over
// junctions. Useful as a solver-quality diagnostic and test invariant.
func (s *Solver) MassBalanceError(res *Result) float64 {
	net := s.net
	residual := make([]float64, len(net.Nodes))
	for i := range net.Nodes {
		residual[i] = -res.Demand[i]
	}
	for li := range net.Links {
		l := &net.Links[li]
		if l.Status == network.Closed {
			continue
		}
		residual[l.From] -= res.Flow[li]
		residual[l.To] += res.Flow[li]
	}
	for nodeIdx, q := range res.EmitterFlow {
		residual[nodeIdx] -= q
	}
	worst := 0.0
	for i := range net.Nodes {
		if net.Nodes[i].Type != network.Junction {
			continue
		}
		if a := math.Abs(residual[i]); a > worst {
			worst = a
		}
	}
	return worst
}
