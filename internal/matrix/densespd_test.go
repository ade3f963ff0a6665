package matrix

import "fmt"

// SPDSystem is the assembly interface SparseSPD implements: resolve
// slots once, then per solve Reset, Add coefficients, Factorize, and
// Solve — all without allocating. The tests drive SparseSPD and the
// dense reference DenseSPD through it, so both see the same assembly.
type SPDSystem interface {
	// N is the system dimension.
	N() int

	// Reset zeroes the assembled coefficients, keeping the structure.
	Reset()

	// DiagSlot returns the assembly slot for diagonal entry (i, i).
	DiagSlot(i int) int

	// PairSlot returns the single slot shared by the symmetric pair
	// (i, j)/(j, i), or -1 when the backend has no such entry. Resolve at
	// setup time; it may be more than O(1).
	PairSlot(i, j int) int

	// Add accumulates v into a resolved slot.
	Add(slot int, v float64)

	// Factorize recomputes the factorization from the assembled
	// coefficients. Allocation-free after construction.
	Factorize() error

	// Solve solves A·x = b into dst using the current factorization.
	// dst may alias b. Allocation-free.
	Solve(b, dst []float64) error

	// NNZ is the stored coefficient count (upper triangle + diagonal).
	NNZ() int

	// FactorNNZ is the factor's nonzero count; FactorNNZ−NNZ is fill-in.
	FactorNNZ() int
}

// DenseSPD is the dense reference the sparse backend is checked
// against: SPDSystem over a dense matrix with the reusable Cholesky
// factorization. Assembly writes the upper triangle plus the
// diagonal; Factorize mirrors it to the lower triangle the factorization
// reads (O(n²) against the factorization's O(n³/6)).
type DenseSPD struct {
	n    int
	a    *Dense
	chol Cholesky
}

// NewDenseSPD builds an n×n dense SPD system.
func NewDenseSPD(n int) (*DenseSPD, error) {
	if n <= 0 {
		return nil, fmt.Errorf("matrix: DenseSPD of invalid dimension %d", n)
	}
	return &DenseSPD{n: n, a: NewDense(n, n)}, nil
}

// N returns the system dimension.
func (d *DenseSPD) N() int { return d.n }

// Reset zeroes the coefficient matrix.
func (d *DenseSPD) Reset() { d.a.Zero() }

// DiagSlot returns the slot of diagonal entry (i, i).
func (d *DenseSPD) DiagSlot(i int) int { return i*d.n + i }

// PairSlot returns the slot of the upper-triangle cell of the pair.
func (d *DenseSPD) PairSlot(i, j int) int {
	if i < 0 || j < 0 || i >= d.n || j >= d.n || i == j {
		return -1
	}
	if i > j {
		i, j = j, i
	}
	return i*d.n + j
}

// Add accumulates v into a resolved slot.
func (d *DenseSPD) Add(slot int, v float64) { d.a.data[slot] += v }

// Factorize mirrors the assembled upper triangle into the lower and
// recomputes the Cholesky factor in place.
func (d *DenseSPD) Factorize() error {
	n := d.n
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d.a.data[j*n+i] = d.a.data[i*n+j]
		}
	}
	return d.chol.Refactorize(d.a)
}

// Solve solves A·x = b into dst; dst may alias b.
func (d *DenseSPD) Solve(b, dst []float64) error { return d.chol.SolveTo(dst, b) }

// NNZ counts the dense upper triangle plus diagonal.
func (d *DenseSPD) NNZ() int { return d.n * (d.n + 1) / 2 }

// FactorNNZ counts the dense factor's lower triangle plus diagonal.
func (d *DenseSPD) FactorNNZ() int { return d.n * (d.n + 1) / 2 }
