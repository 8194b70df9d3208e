// Package xerr is the data-path error taxonomy. Every error that crosses a
// storage-stack boundary (WAL, CAS, middle-box journal/relay, replicate)
// carries one of four classes so callers pick a recovery strategy from the
// class instead of string-matching messages:
//
//	Transient — momentary failure; retry with backoff is appropriate.
//	Overload  — the component is up but cannot take the work now (a full
//	            journal, a replicate box short of quorum); back off and
//	            retry, or surface queue-full (SCSI BUSY).
//	Exhausted — a bounded resource (WAL segments, CAS chunk slots) is gone;
//	            retrying won't help until space is reclaimed or released.
//	Terminal  — the operation can never succeed against this endpoint
//	            (draining relay, closed box); fail fast, don't burn backoff.
//
// Classes ride along the normal error chain: Wrap preserves errors.Is /
// errors.As against the underlying sentinel, and Classify walks the chain so
// a class survives any number of fmt.Errorf("%w") hops.
package xerr

import (
	"errors"
	"fmt"
)

// Class partitions data-path errors by the recovery strategy they demand.
type Class int

const (
	// Unknown is the zero class: the error carries no taxonomy tag.
	Unknown Class = iota
	// Transient failures are worth an in-place retry with backoff.
	Transient
	// Overload means admission control refused the work; back off and
	// resubmit, or surface queue-full to the initiator.
	Overload
	// Exhausted means a bounded resource ran out; retry only after reclaim.
	Exhausted
	// Terminal means the operation cannot succeed against this endpoint.
	Terminal
)

// String names the class for logs and gauges.
func (c Class) String() string {
	switch c {
	case Transient:
		return "transient"
	case Overload:
		return "overload"
	case Exhausted:
		return "exhausted"
	case Terminal:
		return "terminal"
	default:
		return "unknown"
	}
}

// classed tags an underlying error with a Class while keeping the chain
// intact for errors.Is / errors.As.
type classed struct {
	class Class
	err   error
}

func (e *classed) Error() string { return e.err.Error() }
func (e *classed) Unwrap() error { return e.err }

// Class exposes the tag to Classify via errors.As.
func (e *classed) Class() Class { return e.class }

// New builds a classed sentinel error, the taxonomy analogue of errors.New.
func New(c Class, msg string) error {
	return &classed{class: c, err: errors.New(msg)}
}

// Errorf builds a classed formatted error; %w verbs work as in fmt.Errorf.
func Errorf(c Class, format string, args ...any) error {
	return &classed{class: c, err: fmt.Errorf(format, args...)}
}

// Wrap tags err with class c without obscuring it: errors.Is(Wrap(c, err), err)
// holds. Wrapping nil returns nil.
func Wrap(c Class, err error) error {
	if err == nil {
		return nil
	}
	return &classed{class: c, err: err}
}

// classer is the interface Classify looks for along the chain. Any error
// type with a Class() method participates, not just this package's wrapper.
type classer interface{ Class() Class }

// Classify walks err's chain and returns the first taxonomy class found, or
// Unknown when no link carries one.
func Classify(err error) Class {
	var c classer
	if errors.As(err, &c) {
		return c.Class()
	}
	return Unknown
}

// Retryable reports whether an immediate-ish retry can help: transient and
// overload errors are retryable (with backoff), exhausted and terminal are
// not — exhausted needs reclaim first, terminal never succeeds.
func Retryable(err error) bool {
	switch Classify(err) {
	case Transient, Overload:
		return true
	default:
		return false
	}
}

// IsTerminal reports whether err is classed Terminal — the caller should
// fail fast instead of spending its retry budget.
func IsTerminal(err error) bool { return Classify(err) == Terminal }
