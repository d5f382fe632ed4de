(** The global phase hook: a single installable sink of named phases
    that the hot paths ({!Domain_pool.run}, the engines' sync rounds) and
    the paper's phases (SYNC_MST fragment levels and wave sweeps, marker
    assembly, transformer epochs, observatory scenarios) call into when —
    and only when — a phase ledger is attached.  Besides framing phases
    for wall time and allocation, a sink takes explicit logical charges
    (ideal-time rounds, activations, register writes, peak bits) for the
    phases open at the time.

    This module lives at the bottom of the library graph on purpose: the
    simulator cannot depend on the observatory, so the full profiler
    ({!Ssmst_obs.Telemetry}) installs itself here and everything above
    reports through this narrow interface.  With nothing installed every
    probe call is one [ref] read and a branch — the disabled cost the
    [bench PROF] gate pins at ~0%.

    Threading contract: {!sink.enter}/{!sink.leave}/{!sink.span} are
    called only from the calling (main) domain; worker domains may call
    {!sink.now} concurrently and must hand the resulting timestamps back
    to the caller, which emits them as retroactive {!sink.span}s after
    the join barrier; {!sink.charge} is main-domain only too.  Probes are
    strictly out-of-band: no probe may influence registers, metrics,
    traces or scheduling. *)

type sink = {
  now : unit -> float;
      (** Monotonic-enough seconds ([Unix.gettimeofday] or a fake clock).
          The only field worker domains may call. *)
  enter : string -> unit;  (** Begin the named phase (main domain only). *)
  leave : string -> unit;
      (** End the innermost open phase; the name is a cross-check, the
          stack decides. *)
  span : tid:int -> string -> float -> float -> unit;
      (** [span ~tid name t0 t1]: a retroactive interval on logical track
          [tid] (a worker-domain index), stamped by that worker via
          {!now} and emitted by the caller after the barrier. *)
  charge : rounds:int -> activations:int -> writes:int -> peak_bits:int -> unit;
      (** Add logical cost to every open phase: rounds, activations and
          writes add up, [peak_bits] raises the phases' high-water mark.
          Main domain only. *)
}

val null : sink
(** Swallows everything; [now] returns [0.]. *)

val install : sink -> unit
val uninstall : unit -> unit

val get : unit -> sink option
(** [None] iff nothing is installed — the zero-cost fast path; grab it
    once per round, not per probe. *)

val enter : string -> unit
val leave : string -> unit
(** Convenience wrappers over {!get} for cold call sites (epoch / trial
    granularity); hot loops should match on {!get} themselves. *)

val with_ : string -> (unit -> 'a) -> 'a
(** [with_ name f] runs [f] inside [enter name]/[leave name]
    (exception-safe); no-op framing when nothing is installed. *)

val charge : ?rounds:int -> ?activations:int -> ?writes:int -> ?peak_bits:int -> unit -> unit
(** {!sink.charge} on the installed sink (omitted counts are 0); a no-op
    when nothing is installed.  For algorithms with their own cost model
    (the SYNC_MST timetable, the marker's wave passes) and for engine
    counter deltas ([Metrics.phase] in the simulator). *)
