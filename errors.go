package eigen

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/tridiag"
)

// ErrNotFinite is the sentinel matched (via errors.Is) by every
// *NotFiniteError: the input matrix contains a NaN or ±Inf entry. Without
// this check a NaN input used to surface as a baffling symmetry-check
// failure (NaN ≠ NaN) or as a garbage spectrum.
var ErrNotFinite = errors.New("eigen: input contains a non-finite value")

// NotFiniteError reports the first non-finite entry found in an input
// matrix. It matches ErrNotFinite under errors.Is. The scan runs on every
// solve, before the symmetry check and any factorization work.
type NotFiniteError struct {
	// Row, Col locate the offending entry.
	Row, Col int
	// Value is the entry itself (NaN, +Inf or -Inf).
	Value float64
}

func (e *NotFiniteError) Error() string {
	return fmt.Sprintf("eigen: input is not finite: a[%d,%d] = %v", e.Row, e.Col, e.Value)
}

// Is reports whether target is ErrNotFinite, so callers can test the error
// class without destructuring.
func (e *NotFiniteError) Is(target error) bool { return target == ErrNotFinite }

// ErrInvalidRange is the sentinel matched (via errors.Is) by every
// *RangeError: an EigRange/EigValuesRange index pair that does not describe
// a non-empty 1-based ascending subrange of the spectrum.
var ErrInvalidRange = errors.New("eigen: invalid eigenpair index range")

// RangeError reports an invalid [IL, IU] eigenpair request against an
// order-N problem. Valid requests satisfy 1 ≤ IL ≤ IU ≤ N; in particular
// every range request against an empty (n = 0) matrix is invalid. It
// matches ErrInvalidRange under errors.Is.
type RangeError struct {
	IL, IU int
	// N is the matrix order the range was checked against, or -1 when the
	// range was rejected before the matrix was seen.
	N int
}

func (e *RangeError) Error() string {
	if e.N < 0 {
		return fmt.Sprintf("eigen: invalid eigenpair range [%d, %d] (want 1 ≤ il ≤ iu ≤ n)", e.IL, e.IU)
	}
	return fmt.Sprintf("eigen: invalid eigenpair range [%d, %d] for n=%d (want 1 ≤ il ≤ iu ≤ n)", e.IL, e.IU, e.N)
}

// Is reports whether target is ErrInvalidRange.
func (e *RangeError) Is(target error) bool { return target == ErrInvalidRange }

// ErrNoConvergence is returned (unwrapped, so == comparison also works) when
// an iterative tridiagonal eigensolver exceeds its iteration budget. For
// these algorithms that indicates a pathological matrix or a logic error
// rather than an expected runtime condition; a Solver that returned it stays
// fully usable — pooled workspaces make no assumption about the contents a
// failed solve left behind.
var ErrNoConvergence = tridiag.ErrNoConvergence

// checkFinite scans column-major data for the first NaN/±Inf entry and
// returns the typed error describing it, or nil. rows is the matrix row
// count (for locating the entry).
func checkFinite(data []float64, rows int) error {
	for idx, v := range data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return &NotFiniteError{Row: idx % rows, Col: idx / rows, Value: v}
		}
	}
	return nil
}
