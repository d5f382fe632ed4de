(** The phase ledger: one tree of named phases, each carrying the paper's
    logical cost beside the machine's physical cost.

    Phases are opened and closed through the {!Ssmst_parallel.Probe}
    hook: the engines' sync-round sub-phases (frontier scan, worker
    compute, effect apply), {!Ssmst_parallel.Domain_pool.run}'s
    per-worker start/stop stamps, SYNC_MST's fragment levels and wave
    sweeps, marker assembly, transformer epochs and the observatory's
    scenario phases.  The tree is rooted at ["run"]; a phase entered
    while another is open becomes its child, children are listed in
    first-entered order, and re-entering a name under the same parent
    re-opens the same node (its [calls] count the entries).

    Two sets of columns, both inclusive (a phase covers its children):
    - logical: ideal-time rounds, activations, register writes (summed)
      and peak register bits (a high-water mark), fed only by explicit
      {!charge}s — the algorithms' own timetables and the engine
      {!Ssmst_sim.Metrics} deltas the observatory charges per phase;
    - physical: calls, wall seconds and [Gc] deltas (minor/major words
      allocated, collection counts) measured between enter and leave.

    The ledger is strictly out-of-band: installing it changes no
    register, metric, alarm, trace or hook byte at any [-d]/[-j] (the
    identity suite in [test_domains] asserts this with a live ledger
    attached).  Renderings: a per-phase table (markdown/CSV), a JSON
    block for {!Report.to_json}, and a [chrome://tracing] JSON trace (one
    track per worker domain).

    Threading: {!enter}/{!leave}/{!charge} are main-domain only; worker
    domains only ever call the injected clock (via [Probe.now]) — so the
    real clock must be domain-safe ([Unix.gettimeofday] is), while the
    deterministic {!fake} clock is a mutable counter and therefore only
    meaningful single-domain.  GC deltas are sampled on the calling
    domain only; retroactive worker spans carry wall time but no
    allocation. *)

type gc_sample = {
  minor_words : float;
  major_words : float;
  minor_collections : float;
  major_collections : float;
}

type phase = {
  name : string;
  mutable calls : int;
  mutable wall_s : float;
  mutable minor_words : float;
  mutable major_words : float;
  mutable minor_collections : float;
  mutable major_collections : float;
  mutable rounds : int;
  mutable activations : int;
  mutable writes : int;
  mutable peak_bits : int;
  mutable children_rev : phase list;  (** newest first; see {!children} *)
}

type t

val create : ?clock:(unit -> float) -> ?gc:(unit -> gc_sample) -> ?max_events:int -> unit -> t
(** Defaults: [Unix.gettimeofday]; a GC sampler with exact words
    ([Gc.minor_words], [Gc.counters]) and collection counts served from a
    [Gc.quick_stat] cache refreshed at most once per half minor heap of
    allocation (the raw quick_stat is ~1.2 us a call — too slow for the
    per-round probes); and a 200_000-event cap on the Chrome-trace buffer
    — beyond it events are counted as dropped, phase accumulation never
    stops.  Inject [clock]/[gc] for deterministic tests. *)

val fake : unit -> t
(** A deterministic ledger: a clock ticking 1 ms per call and a zeroed
    GC sampler, so every rendering below is byte-identical across runs of
    the same (single-domain) workload. *)

val logical : unit -> t
(** A clockless ledger: no clock, no GC sampler, no trace events.  Its
    renderings carry the tree, the calls and the logical columns only, so
    they are byte-identical across runs at any [-d] ([msst report]). *)

val enter : t -> string -> unit
val leave : t -> string -> unit
(** Phase begin/end.  [leave] closes the innermost open phase (the name
    argument is advisory). *)

val span : t -> tid:int -> string -> float -> float -> unit
(** A retroactive interval on worker track [tid] (from
    [Domain_pool.run]'s stamps), accumulated as the child
    ["name.d<tid>"] of the innermost open phase, with wall time only. *)

val charge : t -> rounds:int -> activations:int -> writes:int -> peak_bits:int -> unit
(** Add logical cost to the root and every open phase. *)

val sink : t -> Ssmst_parallel.Probe.sink
val install : t -> unit
(** [Probe.install (sink t)] — from here every probe in the engines,
    pool, SYNC_MST, marker, transformer and observatory feeds [t]. *)

val uninstall : unit -> unit

val root : t -> phase
(** The ["run"] phase: every charge, and the whole run's wall time. *)

val children : phase -> phase list
(** In first-entered order. *)

val phases : t -> phase list
(** Every phase but the root, depth-first, children in first-entered
    order. *)

val total_wall_s : t -> float
(** Last observed clock reading minus creation: the root's wall time and
    the denominator of the table's %% column. *)

val dropped_events : t -> int

val to_markdown : t -> string
(** One row per phase, depth-first from the root, nesting shown by one
    ["· "] per level. *)

val to_csv : t -> string
(** One row per phase keyed by its [/]-joined path from the root. *)

val to_json : t -> string
(** The block {!Report.to_json} embeds:
    [{"clocked":..,"total_wall_s":..,"dropped_events":..,"phases":ROOT}],
    each phase an object with its columns and ["children"]. *)

val to_chrome_trace : t -> string
(** A [chrome://tracing]-loadable object: complete ("ph":"X") events in
    microseconds relative to the ledger's creation, [pid] 0, [tid] =
    worker-domain index (main-domain phases on track 0). *)
