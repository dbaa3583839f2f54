// Package cerrors defines the error classification shared by every
// architecture's public surface: sentinel values for errors.Is matching, and
// stable (Code, Phase) pairs callers can switch on without ever string-
// matching a message. The three control architectures (centralized, parallel,
// distributed) return these values — usually wrapped with %w and call-site
// context — so callers can match failure classes with errors.Is without
// caring which architecture is deployed. The root crew package re-exports
// the sentinels as its public error API.
//
// Codes are append-only and never renamed: they are the machine-readable
// contract (log pipelines, retry policies, tests). The Phase records where in
// an operation's life cycle the failure happened, which is what distinguishes
// "the TCP dial was refused" from "the peer crashed mid-frame" when both
// surface from the same call.
package cerrors

import (
	"errors"
	"fmt"
)

var (
	// ErrUnknownWorkflow reports a workflow class name absent from the
	// deployed library.
	ErrUnknownWorkflow = errors.New("unknown workflow class")
	// ErrUnknownInstance reports a workflow instance that was never started
	// on this deployment.
	ErrUnknownInstance = errors.New("unknown workflow instance")
	// ErrNotRunning reports an operation (abort, input change) against an
	// instance that already reached a terminal status.
	ErrNotRunning = errors.New("instance is not running")
	// ErrTimeout reports that a wait's deadline elapsed before the instance
	// reached a terminal status.
	ErrTimeout = errors.New("timed out waiting for instance")
	// ErrClosed reports an operation on a closed system.
	ErrClosed = errors.New("system is closed")
	// ErrInvalidConfig reports a Config or fault plan that fails validation
	// before any system is built.
	ErrInvalidConfig = errors.New("invalid configuration")
	// ErrWire reports a transport wire-backend failure (socket or frame
	// level). Match the class with errors.Is(err, ErrWire), then switch on
	// CodeOf(err) for the specific failure.
	ErrWire = errors.New("transport wire failure")
	// ErrStore reports a durable-store failure (the WAL file or a row in it).
	// Match the class with errors.Is(err, ErrStore), then switch on
	// CodeOf(err) for the specific failure.
	ErrStore = errors.New("durable store failure")
)

// Code is a stable, machine-readable failure class. Callers switch on codes;
// they never parse error strings.
type Code string

// Stable error codes. Append-only: existing values are part of the public
// contract and must not be renamed or reused.
const (
	// CodeUnknown is the zero code: the error carries no classification.
	CodeUnknown Code = ""
	// CodeUnknownWorkflow mirrors ErrUnknownWorkflow.
	CodeUnknownWorkflow Code = "unknown_workflow"
	// CodeUnknownInstance mirrors ErrUnknownInstance.
	CodeUnknownInstance Code = "unknown_instance"
	// CodeNotRunning mirrors ErrNotRunning.
	CodeNotRunning Code = "not_running"
	// CodeTimeout mirrors ErrTimeout.
	CodeTimeout Code = "timeout"
	// CodeClosed mirrors ErrClosed.
	CodeClosed Code = "closed"
	// CodeInvalidConfig mirrors ErrInvalidConfig.
	CodeInvalidConfig Code = "invalid_config"

	// Wire-backend codes. All carry ErrWire as their class sentinel.

	// CodeDialRefused reports that dialing a wire backend's listener failed
	// (connection refused, missing socket file, bad address).
	CodeDialRefused Code = "wire_dial_refused"
	// CodeFrameTruncated reports a frame cut short: the connection delivered
	// fewer bytes than the length prefix promised.
	CodeFrameTruncated Code = "wire_frame_truncated"
	// CodeFrameMalformed reports a structurally invalid frame: unknown frame
	// type, a body that ends early or runs long, a value out of range, or an
	// unregistered payload type.
	CodeFrameMalformed Code = "wire_frame_malformed"
	// CodeFrameOversized reports a frame whose declared length exceeds the
	// codec's hard limit (protects receivers from hostile or corrupt peers).
	CodeFrameOversized Code = "wire_frame_oversized"
	// CodePeerCrashed reports that the process or connection serving a wire
	// node died with messages still owed to or by it.
	CodePeerCrashed Code = "wire_peer_crashed"
	// CodeUnclaimedNode reports a claim (a child's HELLO) naming a node the
	// hub has not registered: the hub refused it, so the dial fails.
	CodeUnclaimedNode Code = "wire_unclaimed_node"
	// CodeWireFormat reports a hub and an agent process built with different
	// wire formats (transport.WireFormat): the hub refused the claim, so the
	// mismatch fails the dial instead of misdecoding payloads mid-run.
	CodeWireFormat Code = "wire_format"

	// Durable-store codes. All carry ErrStore as their class sentinel.

	// CodeStoreFormat reports durable bytes this build does not read: a
	// store file without the expected magic and format byte (a log written
	// before the binary format included), or a row with an unknown version
	// or an invalid structure. The file is left untouched.
	CodeStoreFormat Code = "store_format"
)

// Phase locates a failure within an operation's life cycle.
type Phase string

// Failure phases. Append-only, like codes.
const (
	// PhaseNone is the zero phase: the error carries no phase.
	PhaseNone Phase = ""
	// PhaseConfig covers validation before any system is built.
	PhaseConfig Phase = "config"
	// PhaseListen covers binding a wire backend's listener.
	PhaseListen Phase = "listen"
	// PhaseDial covers establishing a connection to a wire listener.
	PhaseDial Phase = "dial"
	// PhaseEncode covers serializing a message into a wire frame.
	PhaseEncode Phase = "encode"
	// PhaseDecode covers parsing a received wire frame.
	PhaseDecode Phase = "decode"
	// PhaseDeliver covers handing an accepted message to its destination.
	PhaseDeliver Phase = "deliver"
	// PhaseRecovery covers crash recovery (rebuild, replay, reclaim).
	PhaseRecovery Phase = "recovery"
	// PhaseOpen covers opening a durable store (header check, log replay).
	PhaseOpen Phase = "open"
)

// Error is a classified error: a stable code, the phase it occurred in, and
// the underlying cause. It matches errors.Is against its class sentinel (and
// whatever the cause matches), so existing errors.Is call sites keep working
// when a plain sentinel is upgraded to a classified error.
type Error struct {
	Code  Code
	Phase Phase
	// Class is the sentinel this error is an instance of (e.g. ErrWire);
	// errors.Is(err, Class) matches. May be nil.
	Class error
	// Err is the underlying cause; may be nil.
	Err error
	// Msg is optional call-site context.
	Msg string
}

// E builds a classified error. Typical use:
//
//	cerrors.E(cerrors.CodeFrameTruncated, cerrors.PhaseDecode, cerrors.ErrWire, err, "node %q", node)
func E(code Code, phase Phase, class, err error, format string, args ...any) *Error {
	return &Error{Code: code, Phase: phase, Class: class, Err: err, Msg: fmt.Sprintf(format, args...)}
}

// Error renders the human-readable form. The code and phase are included for
// log greppability, but programs must use CodeOf/PhaseOf, never this string.
func (e *Error) Error() string {
	s := string(e.Code)
	if e.Phase != PhaseNone {
		s += "@" + string(e.Phase)
	}
	if e.Msg != "" {
		s += ": " + e.Msg
	}
	if e.Err != nil {
		s += ": " + e.Err.Error()
	}
	return s
}

// Unwrap exposes the cause chain: the class sentinel and the underlying
// error both match errors.Is.
func (e *Error) Unwrap() []error {
	var out []error
	if e.Class != nil {
		out = append(out, e.Class)
	}
	if e.Err != nil {
		out = append(out, e.Err)
	}
	return out
}

// CodeOf extracts the stable code from an error chain. Plain sentinels map to
// their mirrored codes, so CodeOf is total over the package's public errors;
// anything unclassified reports CodeUnknown.
func CodeOf(err error) Code {
	var ce *Error
	if errors.As(err, &ce) {
		return ce.Code
	}
	switch {
	case err == nil:
		return CodeUnknown
	case errors.Is(err, ErrUnknownWorkflow):
		return CodeUnknownWorkflow
	case errors.Is(err, ErrUnknownInstance):
		return CodeUnknownInstance
	case errors.Is(err, ErrNotRunning):
		return CodeNotRunning
	case errors.Is(err, ErrTimeout):
		return CodeTimeout
	case errors.Is(err, ErrClosed):
		return CodeClosed
	case errors.Is(err, ErrInvalidConfig):
		return CodeInvalidConfig
	default:
		return CodeUnknown
	}
}

// PhaseOf extracts the failure phase from an error chain (PhaseNone if the
// chain carries no classified error).
func PhaseOf(err error) Phase {
	var ce *Error
	if errors.As(err, &ce) {
		return ce.Phase
	}
	return PhaseNone
}
