(** Verification hooks: run the invariant checker at the phase
    boundaries the Scotch app and fault injector announce
    (post-redirect, post-withdrawal, post-migration, post-recovery),
    whenever an {!Scotch_sim.Engine.run} call returns, and — under
    [Config.Continuous] — incrementally on every flow-mod, group-mod
    and liveness flip at the install chokepoints.

    The mode comes from the app's {!Scotch_core.Config.verify} knob
    alone.  With [Config.Off] (the default), {!install} is a no-op and
    production runs pay nothing.  Findings are collected, not raised: read
    {!reports} / {!error_count} after the run; continuous-mode
    diagnostics carry the virtual time each violation first appeared
    ({!Diagnostic.first_at}). *)

type report = {
  phase : string; (** which boundary fired ("post-recovery", "run-end", …) *)
  at : float;     (** simulation time of the check *)
  diagnostics : Diagnostic.t list;
}

type t

(** Seconds between a phase notification and its check: control-channel
    sends are asynchronous, so device state lags controller intent by a
    few channel latencies — and a recovery can race a concurrent
    failure's detection window.  Half a second of simulated time lets
    the dataplane settle. *)
val settle_delay : float

(** Continuous-mode audit cadence: every this many incremental updates,
    the maintained diagnostic set is compared against a full rescan of
    the tracked model. *)
val equiv_every : int

(** [install ?phases ?run_end ~engine ~topo scotch] subscribes the
    checker to the app's phase boundaries (default: [`Post_recovery]
    only — redirects and migrations legitimately overlap in-flight
    installs) and, when [run_end] (default [true]), to every
    {!Scotch_sim.Engine.run} return.  Under [Config.Continuous] it also
    builds an {!Incremental} verifier, taps every switch's dataplane
    updates and the reliable layer's installs, re-verifies the affected
    header-space classes on each delta, audits against a full rescan
    every {!equiv_every} updates and resyncs at each phase check.
    Returns [None] when verification is disabled. *)
val install :
  ?phases:Scotch_core.Scotch.phase list -> ?run_end:bool -> engine:Scotch_sim.Engine.t ->
  topo:Scotch_topo.Topology.t -> Scotch_core.Scotch.t -> t option

(** Completed checks, oldest first. *)
val reports : t -> report list

(** Number of checks run so far. *)
val checks_run : t -> int

(** Total [Error]-severity diagnostics across all reports. *)
val error_count : t -> int

(** Reports for one phase label. *)
val reports_of_phase : t -> string -> report list

(** The continuous-mode incremental verifier, when running under
    [Config.Continuous] (latency/class statistics live on it). *)
val incremental : t -> Incremental.t option

(** Install batches seen at the controller's send chokepoint
    (continuous mode only; [0] otherwise). *)
val installs_issued : t -> int
