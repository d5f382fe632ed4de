open Ssmst_graph
open Ssmst_sim

(** The verifier instantiation of {!Ssmst_sim.Campaign}: build an instance
    (graph + marker + settled verifier network), then sweep fault models
    over it, measuring detection time and detection distance per trial.
    Shared by [msst campaign] and the [bench CAMPAIGN] experiment. *)

val family_names : string list
(** ["random"; "path"; "ring"; "grid"; "complete"; "star"; "hypertree"] *)

val graph_of_family : string -> Random.State.t -> int -> Graph.t
(** Note that two families round the requested size: ["grid"] builds a
    side² grid with side = [max 2 (sqrt n)], and ["hypertree"] rounds down
    to the nearest complete-binary-tree size [2^(h+1)-1] with h ≥ 2 (so
    requests below 7 still yield 7 nodes).  Campaign rows record both the
    actual ([Campaign.spec.n]) and the requested size.
    @raise Invalid_argument on an unknown family name. *)

type instance
(** A settled verifier instance: the graph, its marker, and the register
    snapshot after the settling run — trials restart from the snapshot, so
    the O(window_bound) settling cost is paid once per instance, not once
    per (f, model) grid point. *)

val prepare : ?domains:int -> family:string -> n:int -> seed:int -> unit -> instance
(** Builds the instance's marker as a ["construct"] phase and settles the
    verifier as a ["settle"] phase ({!Ssmst_parallel.Probe}).  [domains]
    (default 1) fans the settling run's sync rounds across worker
    domains; the settled snapshot is byte-identical either way. *)

val graph : instance -> Graph.t
val root : instance -> int
(** The MST root: the anchor of the ["near-root"] placement. *)

val run_trial :
  ?domains:int ->
  instance ->
  model:Fault.t ->
  inject_seed:int ->
  max_rounds:int ->
  Campaign.outcome
(** One trial on a fresh network rewound to the instance snapshot via the
    engine's metrics/trace-neutral [restore] (so [register_writes] counts
    protocol work only — 0 until the injection); deterministic in the
    instance and [inject_seed] at every [domains]. *)

val sweep :
  ?jobs:int ->
  families:string list ->
  sizes:int list ->
  fault_counts:int list ->
  models:string list ->
  seeds:int ->
  seed:int ->
  max_rounds:int ->
  unit ->
  Campaign.trial list
(** The full campaign grid, in deterministic order: for each family x n x
    instance-seed, one {!prepare}, then every fault count x model.  The
    [seed] is the base; instance seed i uses [seed + 7919 * i].

    [jobs] (default 1) shards the instance grid across that many forked
    worker processes ({!Ssmst_parallel.Pool.map}); per-instance seeds make
    every shard self-contained, so the trial list is identical — byte for
    byte once serialized — for every [jobs]. *)
