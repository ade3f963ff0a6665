// Package hydraulic implements a demand-driven hydraulic solver for water
// distribution networks — the repository's "EPANET++" substitute.
//
// The steady-state engine is the Todini–Pilati Global Gradient Algorithm
// (GGA), the same algorithm EPANET 2 implements: junction heads and link
// flows are solved simultaneously by Newton iteration over the coupled
// energy and continuity equations. Pipe friction follows Hazen–Williams,
// pumps follow a parametric curve H = H0 − R·Qᴺ, and pipe leaks are modeled
// as pressure-dependent emitters Q = EC·p^β exactly as in the paper
// (eq. 1). An extended-period engine integrates tank levels between steady
// solves at the IoT sampling period (15 minutes in the paper).
//
// All quantities are SI: m, m³/s, meters of head.
package hydraulic

import (
	"math"

	"github.com/aquascale/aquascale/internal/matrix"
	"github.com/aquascale/aquascale/internal/network"
)

const (
	// hwCoeff is the Hazen-Williams resistance coefficient for SI units
	// (h in m, Q in m³/s, length and diameter in m).
	hwCoeff = 10.667

	// hwExp is the Hazen-Williams flow exponent.
	hwExp = 1.852

	// hwFrac is the exponent hwPowTo raises |Q| to through Exp/Log:
	// float64(hwExp−1) − 1, the split math.Pow makes of the float64
	// exponent 0.852 (exact by Sterbenz). The untyped constant hwExp−2
	// rounds −0.148 directly and is a different float64.
	hwFrac = float64(hwExp-1) - 1

	// minorLossCoeff converts a dimensionless minor-loss coefficient K and
	// diameter d to the quadratic resistance m = K·8/(g·π²·d⁴).
	minorLossCoeff = 8.0 / (9.81 * math.Pi * math.Pi)

	// qSmall is the flow magnitude below which gradients are linearized to
	// keep the Jacobian bounded (EPANET applies the same guard).
	qSmall = 1e-6

	// pumpBackflowResistance penalizes reverse flow through pumps, which
	// EPANET models with a large linear resistance (check-valve behavior).
	pumpBackflowResistance = 1e8
)

// pipeResistance returns the Hazen-Williams resistance r such that the
// friction loss is r·Q^1.852.
func pipeResistance(l *network.Link) float64 {
	return hwCoeff * l.Length / (math.Pow(l.Roughness, hwExp) * math.Pow(l.Diameter, 4.871))
}

// minorResistance returns the quadratic minor-loss resistance m such that
// the loss is m·Q².
func minorResistance(l *network.Link) float64 {
	if l.MinorLoss <= 0 || l.Diameter <= 0 {
		return 0
	}
	d4 := l.Diameter * l.Diameter * l.Diameter * l.Diameter
	return minorLossCoeff * l.MinorLoss / d4
}

// linkCoeffs holds the per-iteration Newton linearization of one link:
// headloss h(Q) and inverse gradient p = 1/(dh/dQ).
type linkCoeffs struct {
	h float64 // headloss From→To at current flow (m); negative = head gain
	p float64 // inverse gradient 1/(dh/dQ)
}

// hwPowTo sets hw[k] = math.Pow(aq[k], hwExp−1) bit for bit for every
// aq[k] ≥ qSmall, +Inf and NaN, with one batched Log and one batched Exp:
// LogTo, the hwFrac scaling, ExpTo, the aq scaling. Pow computes x^0.852
// as Ldexp(Exp(hwFrac·Log x)·m, e) with x = m·2^e; the power-of-two
// scaling is exact while the result is normal, which aq ≥ qSmall ensures,
// so multiplying by aq instead rounds identically. LogTo and ExpTo give
// math.Log's and math.Exp's bits four lanes at a time.
// TestPipeHeadlossPowIdentity pins this against the standard library.
func hwPowTo(hw, aq []float64) {
	hw = hw[:len(aq)]
	matrix.LogTo(hw, aq)
	for k := range hw {
		hw[k] *= hwFrac
	}
	matrix.ExpTo(hw, hw)
	for k, a := range aq {
		if a == math.Inf(1) {
			hw[k] = a // Exp(hwFrac·Log(+Inf))·(+Inf) would be 0·Inf = NaN
			continue
		}
		hw[k] *= a
	}
}

// pipeCoeffs evaluates Hazen-Williams friction plus quadratic minor loss
// at flow q, given aq = max(|q|, qSmall) and hw = aq^0.852 (hwPowTo). r
// and m are the link's precomputed resistances.
func pipeCoeffs(r, m, q, aq, hw float64) linkCoeffs {
	// h = r·Q·|Q|^0.852 + m·Q·|Q|; dh/dQ = 1.852·r·|Q|^0.852 + 2·m·|Q|.
	grad := hwExp*r*hw + 2*m*aq
	h := q * (r*hw + m*aq)
	return linkCoeffs{h: h, p: 1 / grad}
}

// evalPump evaluates the pump curve as a negative headloss. Forward flow
// follows h = −(H0 − R·Qᴺ); reverse flow meets a large linear resistance.
func evalPump(l *network.Link, q float64) linkCoeffs {
	if q < 0 {
		// Check valve: strongly resist backflow.
		return linkCoeffs{
			h: -l.PumpH0 + pumpBackflowResistance*q,
			p: 1 / pumpBackflowResistance,
		}
	}
	aq := q
	if aq < qSmall {
		aq = qSmall
	}
	grad := l.PumpN * l.PumpR * math.Pow(aq, l.PumpN-1)
	if grad < 1e-8 {
		grad = 1e-8
	}
	h := -l.PumpH0 + l.PumpR*math.Pow(aq, l.PumpN)
	return linkCoeffs{h: h, p: 1 / grad}
}

// initialFlow picks a starting flow for the Newton iteration: pipes and
// valves start at 0.5 m/s velocity; pumps at half their open-discharge flow.
func initialFlow(l *network.Link) float64 {
	switch l.Type {
	case network.Pump:
		if l.PumpR <= 0 {
			return 0.01
		}
		qMax := math.Pow(l.PumpH0/l.PumpR, 1/l.PumpN)
		return qMax / 2
	default:
		area := math.Pi * l.Diameter * l.Diameter / 4
		return 0.5 * area
	}
}
