package service

import "errors"

// Typed sentinels of the /v1 job API. The server renders each as a
// structured {"error": ..., "code": ...} JSON body; Client maps the code
// straight back to the sentinel, so errors.Is works identically against an
// in-process *Daemon and a remote daemon across the wire.
var (
	// ErrDraining is returned by Submit and Lease once a shutdown has begun.
	ErrDraining = errors.New("service: daemon is draining")
	// ErrJobNotFound is returned for job IDs the daemon has never seen (or
	// has archived away).
	ErrJobNotFound = errors.New("service: job not found")
	// ErrLeaseNotFound is returned for lease tokens the daemon does not hold:
	// expired and revoked leases, tokens from a daemon incarnation that
	// crashed, or plain garbage. A worker seeing it must abandon the shard —
	// another lease owns it now.
	ErrLeaseNotFound = errors.New("service: lease not found")
	// ErrJobFailed wraps a terminal job's own error; Client.Wait returns it
	// when the awaited job finishes in the failed state.
	ErrJobFailed = errors.New("service: job failed")
	// ErrDaemonUnavailable wraps transport-level failures (connection
	// refused, reset): the daemon is down or restarting, not rejecting the
	// request. Client.Wait polls through it.
	ErrDaemonUnavailable = errors.New("service: daemon unavailable")
	// ErrAPIVersion is returned when the server's GET /v1/meta disagrees with
	// the client's expected API version (or is absent entirely).
	ErrAPIVersion = errors.New("service: api version mismatch")
	// ErrJournalVersion is returned by Open for a state directory written in
	// an older journal format: the single-file journal.wal, or segments
	// holding pre-/v1 records. Nothing in the directory is changed.
	ErrJournalVersion = errors.New("service: unsupported journal version")
)
