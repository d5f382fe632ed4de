(** Ring-buffered typed execution traces for the event-driven engine.

    Attach a trace to a {!Network.Make} or {!Network.Flat} instance and
    every activation, register write, alarm transition, fault injection and
    convergence check is recorded as a typed event; the observability layer
    ([Ssmst_obs]) additionally records online-monitor verdicts.  The buffer is bounded: once [capacity] events are held, the
    oldest are dropped (and counted in {!dropped}), so tracing an
    arbitrarily long run costs O(capacity) memory. *)

type cause =
  | Init  (** an external write creating state from nothing *)
  | Neighbor_read of int list
      (** an activation that read the registers behind these ports — the
          causal in-edges of the provenance DAG *)
  | Fault of int  (** a fault injection, by per-run injection id *)

type change = { field : string; old_enc : int; new_enc : int }
(** one field-level delta: [field] comes from [Protocol.S.field_names],
    [old_enc]/[new_enc] from [Protocol.S.encode] before/after the write *)

type prov = { cause : cause; changes : change list }

type event =
  | Activation of { round : int; node : int }
  | Register_write of { round : int; node : int; bits : int; prov : prov option }
      (** [prov] is present when the engine captured provenance (trace or
          write hook attached); pre-provenance traces parse with [None] *)
  | Alarm_raised of { round : int; node : int }
  | Alarm_cleared of { round : int; node : int }
  | Fault_injected of { round : int; node : int; fault : int option }
      (** [fault] is the injection id that write causes refer to *)
  | Convergence of { round : int; reached : bool }
  | Span_mark of { round : int; label : string; enter : bool }
      (** a phase opened ([enter = true]) or closed at [round]; nothing
          records it today (the phase ledger keeps no trace), but the
          JSONL/CSV formats still carry it *)
  | Invariant_violation of { round : int; node : int option; monitor : string; detail : string }
      (** an online monitor found the settled snapshot of [round] in
          violation; [node] pinpoints the first offending node when one
          exists *)

type t

val default_capacity : int

val create : ?capacity:int -> unit -> t
(** @raise Invalid_argument if [capacity <= 0]. *)

val capacity : t -> int

val record : t -> event -> unit

val total : t -> int
(** Events ever recorded, including dropped ones. *)

val length : t -> int
(** Events currently retained. *)

val dropped : t -> int

val clear : t -> unit

val iter : (event -> unit) -> t -> unit
(** Oldest-first over the retained window. *)

val to_list : t -> event list

val event_name : event -> string
val event_round : event -> int
val event_node : event -> int option

val json_escape : string -> string
(** Standard JSON string escaping (quotes, backslashes, control bytes). *)

val cause_to_string : cause -> string
(** A flat descriptor: ["init"], ["read:0,2"] (ports), ["fault:7"]. *)

val cause_of_string : string -> cause option
(** Inverse of {!cause_to_string}. *)

val changes_to_string : change list -> string
(** Semicolon-joined field deltas: ["dist:3>4;parent:2>5"]. *)

val changes_of_string : string -> change list option
(** Inverse of {!changes_to_string} (the empty string is the empty list). *)

val event_to_json : event -> string
(** One JSON object, no trailing newline: a JSONL line.  Label, monitor and
    detail strings are escaped with {!json_escape}. *)

val event_of_json : string -> event option
(** Inverse of {!event_to_json}: parse one JSONL line back into the event it
    encodes, or [None] if the line is not a well-formed event object.  Every
    event round-trips: [event_of_json (event_to_json e) = Some e]. *)

val write_jsonl : out_channel -> t -> unit

val csv_header : string

val csv_escape : string -> string
(** RFC-4180-style quoting, applied only when the cell needs it. *)

val event_to_csv : event -> string
val write_csv : out_channel -> t -> unit

val pp_event : Format.formatter -> event -> unit
