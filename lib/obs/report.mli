open Ssmst_sim

(** The rendering layer of the observatory: one value combining everything
    a run produced — engine metrics, log-bucketed histograms, the phase
    ledger, monitor verdicts, free-form notes — rendered once as markdown
    (for humans and CI artifacts) and once as JSON (for tooling).

    Purely presentational: nothing here runs a scenario; the drivers that
    fill a report live in the core library's [Observatory] module. *)

type t

val create : title:string -> scenario:(string * string) list -> unit -> t
(** [scenario] is the key/value header block (graph family, n, seed, ...). *)

val add_metrics : t -> string -> Metrics.t -> unit
(** One row per network, labelled; rows render in insertion order. *)

val add_hist : t -> string -> Hist.t -> unit
val set_phases : t -> Telemetry.t -> unit
(** The run's phase ledger, rendered when the report is: a table in the
    markdown (logical columns only for a {!Telemetry.logical} ledger),
    one row per phase in the CSV, the {!Telemetry.to_json} block under
    ["phases"] in the JSON ([null] when absent). *)

val set_monitors : t -> (string * Monitor.verdict) list -> unit
val add_note : t -> string -> unit

val all_monitors_ok : t -> bool
(** True when no monitor verdict is a violation (vacuously on none). *)

val to_markdown : t -> string
val to_json : t -> string

val to_csv : t -> string
(** Flat [section,key,value] rows: metrics and histograms one statistic
    per row, the phase ledger one row per phase path (logical columns).
    For spreadsheet ingestion. *)
