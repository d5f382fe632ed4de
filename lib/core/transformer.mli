open Ssmst_graph
open Ssmst_sim

(** The enhanced Awerbuch–Varghese resynchronizer (Section 10, Theorems
    10.1–10.3): alternate a construction regime (self-stabilizing leader
    election + SYNC_MST + marker, charged at its measured O(n) cost) with a
    verification regime (the Section 7–8 verifier running as a live network
    protocol); any alarm triggers a reset and a reconstruction.  The result
    is a self-stabilizing MST construction with O(log n) bits per node and
    O(n) time, inheriting the verifier's detection time and distance. *)

type event =
  | Constructed of int  (** rounds charged for election + SYNC_MST + marker *)
  | Detected of { rounds : int; distance : int option }
  | Quiescent of int

(** Cheap read-only accessors into the live verification network, re-bound
    at every reconstruction: the observatory's report drivers read per-node
    register sizes and last-write rounds through these without the
    network's first-class module escaping. *)
type probe = {
  net_metrics : Metrics.t;
  net_last_write : int -> int;
  net_bits : int -> int;
  net_rounds : unit -> int;
}

(** The observatory ride-along: the online invariant monitors attached
    to the live verification network through the engine's round hook.
    (Phases need no config: each construct-verify-repair cycle reports
    through {!Ssmst_parallel.Probe} as an ["epoch k"] phase, with
    SYNC_MST's fragment levels under its ["construct"] phase and an
    ["inject"] and a ["detect"] phase per injection and
    injection-to-alarm window.) *)
type observatory = {
  monitor_trace : Trace.t option;  (** violations land here *)
  monitors : bool;
  compact_c : int;
  distance_c : int;
}

val observatory :
  ?monitor_trace:Trace.t ->
  ?monitors:bool ->
  ?compact_c:int ->
  ?distance_c:int ->
  unit ->
  observatory
(** Monitors default on, with {!Ssmst_obs.Monitor}'s default constants. *)

val no_observatory : observatory

type t = {
  graph : Graph.t;
  mode : Verifier.mode;
  daemon : Scheduler.t;
  domains : int;
      (** sync-round worker domains on the live verification network
          (see {!Network.Make.create}); 1 = sequential *)
  obs : observatory;
  mutable marker : Marker.t;
  mutable total_rounds : int;
  mutable reconstructions : int;
  mutable history : event list;  (** most recent first *)
  mutable peak_bits : int;
  mutable run_verify : int -> [ `Alarm of int * int option | `Quiet ];
  mutable inject : Random.State.t -> Fault.t -> int list;
  mutable monitor : Ssmst_obs.Monitor.t option;  (** on the live network *)
  mutable monitor_verdicts : (string * Ssmst_obs.Monitor.verdict) list;
      (** latched across epochs; read via {!monitor_results} *)
  mutable probe : probe option;
}

val construction_cost : Graph.t -> Marker.t -> int

val create :
  ?mode:Verifier.mode ->
  ?daemon:Scheduler.t ->
  ?domains:int ->
  ?obs:observatory ->
  Graph.t ->
  t
(** Start from an arbitrary configuration: the first act is a
    reconstruction (Theorem 10.2: O(n) stabilization).  [domains]
    (default 1) fans each verification sync round across that many OCaml 5
    domains — byte-identical states and metrics at every count. *)

val monitor_results : t -> (string * Ssmst_obs.Monitor.verdict) list
(** Latched across every epoch so far: the first violation per monitor
    survives the reconstructions that discard the network it was seen on. *)

val monitors_ok : t -> bool

val reconstruct : t -> unit

val advance : t -> rounds:int -> unit
(** Run the verification regime for [rounds]; reconstruct on detection. *)

val inject_model : t -> Random.State.t -> Fault.t -> int list
(** Apply a typed fault model to the running verification network (the
    epoch re-injection path of the campaign subsystem), as an ["inject"]
    phase charged one write per corrupted node. *)

val inject_faults : t -> Random.State.t -> count:int -> int list
(** Corrupt [count] uniformly placed nodes: [inject_model] under
    {!Fault.uniform}. *)

val tree : t -> Tree.t
(** The current output. *)

val stabilization_rounds : t -> int
(** Cost of the initial stabilization. *)

val memory_bits : t -> int
(** Peak per-node register size across regimes. *)
