package solve

import (
	"errors"
	"fmt"
	"runtime/debug"
)

// ErrSolverPanic is the sentinel every recovered backend panic wraps: a
// solver or region oracle that panicked mid-solve is a failed request, not a
// dead process.  Match with errors.Is; the concrete *SolverPanicError carries
// the backend name and the stack.
var ErrSolverPanic = errors.New("solve: solver panicked")

// SolverPanicError is a backend panic converted into an error at the
// isolation boundary (Service.solve, Service.update, the region-oracle
// workers).  The warm state the panicking solve was running on — a cached
// instance, a chain's instance or region oracle — is considered poisoned and
// dropped by the service, so the next solve runs cold; the process itself
// keeps serving (analogflow_solver_panics_total counts the conversions).
type SolverPanicError struct {
	// Solver is the registry name of the backend that panicked.
	Solver string
	// Value is the recovered panic value.
	Value any
	// Stack is the stack captured at the recovery point.
	Stack []byte
}

func (e *SolverPanicError) Error() string {
	return fmt.Sprintf("solve: solver %q panicked: %v", e.Solver, e.Value)
}

// Unwrap makes errors.Is(err, ErrSolverPanic) match.
func (e *SolverPanicError) Unwrap() error { return ErrSolverPanic }

// guardSolve runs one solver invocation under recover, converting a panic
// into a *SolverPanicError.  It is the failure-domain boundary between a
// backend and the process: everything that calls third-party-shaped solver
// code (instance construction and solves, one-shot solves, in-place
// updates, region oracle calls) goes through it or guardErr.
func guardSolve(solver string, f func() (*Report, error)) (rep *Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			rep = nil
			err = &SolverPanicError{Solver: solver, Value: r, Stack: debug.Stack()}
		}
	}()
	return f()
}

// guardErr is guardSolve for invocations that return only an error
// (UpdatableInstance.Update, and instance construction, whose instance the
// closure captures).
func guardErr(solver string, f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &SolverPanicError{Solver: solver, Value: r, Stack: debug.Stack()}
		}
	}()
	return f()
}
