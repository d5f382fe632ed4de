open Ssmst_sim

(* The rendering layer of the observatory: one value combining everything a
   run produced — engine metrics, log-bucketed histograms, the phase
   ledger, monitor verdicts, free-form notes — rendered once as markdown (for
   humans and CI artifacts) and once as JSON (for downstream tooling).

   Purely presentational: this module never runs anything, so it can live
   below the protocol layers; the scenario drivers that *fill* a report
   live in [lib/core/observatory.ml]. *)

type t = {
  title : string;
  scenario : (string * string) list;  (* key/value header lines, in order *)
  mutable metrics : (string * Metrics.t) list;  (* one row per network, newest last *)
  mutable hists : (string * Hist.t) list;
  mutable phases : Telemetry.t option;
  mutable monitors : (string * Monitor.verdict) list;
  mutable notes : string list;  (* newest last *)
}

let create ~title ~scenario () =
  {
    title;
    scenario;
    metrics = [];
    hists = [];
    phases = None;
    monitors = [];
    notes = [];
  }

let add_metrics t label m = t.metrics <- t.metrics @ [ (label, m) ]
let add_hist t label h = t.hists <- t.hists @ [ (label, h) ]
let set_phases t ledger = t.phases <- Some ledger
let set_monitors t results = t.monitors <- results
let add_note t s = t.notes <- t.notes @ [ s ]

let all_monitors_ok t =
  List.for_all (fun (_, v) -> Monitor.verdict_ok v) t.monitors

(* ---------------- markdown ---------------- *)

let md_escape s =
  (* enough for our own labels: keep table cells from breaking *)
  String.concat "\\|" (String.split_on_char '|' s)

let metrics_table ppf rows =
  Fmt.pf ppf "| network | rounds | activations | writes | wasted | skipped | peak bits | faults | alarms +/- | violations |@.";
  Fmt.pf ppf "|---|---|---|---|---|---|---|---|---|---|@.";
  List.iter
    (fun (label, (m : Metrics.t)) ->
      Fmt.pf ppf "| %s | %d | %d | %d | %d | %d | %d | %d | %d/%d | %d |@." (md_escape label)
        m.rounds m.activations m.register_writes m.wasted_steps m.skipped_activations
        m.peak_bits m.faults_injected m.alarms_raised m.alarms_cleared m.monitor_violations)
    rows

let hist_table ppf hists =
  Fmt.pf ppf "| histogram | n | min | p50 | p90 | p99 | max | mean |@.";
  Fmt.pf ppf "|---|---|---|---|---|---|---|---|@.";
  List.iter
    (fun (label, h) ->
      Fmt.pf ppf "| %s | %d | %d | %d | %d | %d | %d | %.2f |@." (md_escape label)
        (Hist.count h) (Hist.min_value h) (Hist.p50 h) (Hist.p90 h) (Hist.p99 h)
        (Hist.max_value h) (Hist.mean h))
    hists

let monitor_table ppf monitors =
  Fmt.pf ppf "| monitor | verdict |@.";
  Fmt.pf ppf "|---|---|@.";
  List.iter
    (fun (name, v) -> Fmt.pf ppf "| %s | %a |@." (md_escape name) Monitor.pp_verdict v)
    monitors

let to_markdown t =
  Fmt.str "%t" (fun ppf ->
      Fmt.pf ppf "# %s@.@." t.title;
      if t.scenario <> [] then begin
        List.iter (fun (k, v) -> Fmt.pf ppf "- **%s**: %s@." k v) t.scenario;
        Fmt.pf ppf "@."
      end;
      if t.monitors <> [] then begin
        Fmt.pf ppf "## Invariant monitors%s@.@."
          (if all_monitors_ok t then " — all ok" else " — VIOLATIONS");
        monitor_table ppf t.monitors;
        Fmt.pf ppf "@."
      end;
      if t.metrics <> [] then begin
        Fmt.pf ppf "## Metrics@.@.";
        metrics_table ppf t.metrics;
        Fmt.pf ppf "@."
      end;
      if t.hists <> [] then begin
        Fmt.pf ppf "## Histograms@.@.";
        hist_table ppf t.hists;
        Fmt.pf ppf "@.";
        List.iter
          (fun (label, h) ->
            match Hist.nonzero h with
            | [] -> ()
            | cells ->
                Fmt.pf ppf "%s buckets (value &le; upper bound): %s@.@." (md_escape label)
                  (String.concat ", "
                     (List.map (fun (ub, c) -> Fmt.str "&le;%d:%d" ub c) cells)))
          t.hists
      end;
      (match t.phases with
      | None -> ()
      | Some ledger ->
          Fmt.pf ppf "## Phases@.@.";
          Fmt.pf ppf
            "Counts are inclusive: a phase covers its children, one `· ` per level of \
             nesting; a repeated phase under one parent is one row, its calls counted.@.@.";
          Fmt.pf ppf "%s@." (Telemetry.to_markdown ledger));
      if t.notes <> [] then begin
        Fmt.pf ppf "## Notes@.@.";
        List.iter (fun s -> Fmt.pf ppf "- %s@." s) t.notes;
        Fmt.pf ppf "@."
      end)

(* ---------------- CSV ---------------- *)

(* the flat form: one (section, key, value) row per fact, for spreadsheet
   ingestion; histograms flatten to their summary statistics and the phase
   ledger to one row per phase, keyed by its path *)
let to_csv t =
  let buf = Buffer.create 1024 in
  let esc = Trace.csv_escape in
  let row s k v = Buffer.add_string buf (Fmt.str "%s,%s,%s\n" (esc s) (esc k) (esc v)) in
  Buffer.add_string buf "section,key,value\n";
  row "report" "title" t.title;
  List.iter (fun (k, v) -> row "scenario" k v) t.scenario;
  List.iter
    (fun (name, v) -> row "monitor" name (Fmt.str "%a" Monitor.pp_verdict v))
    t.monitors;
  if t.monitors <> [] then row "monitor" "all_ok" (string_of_bool (all_monitors_ok t));
  List.iter
    (fun (label, (m : Metrics.t)) ->
      List.iter
        (fun (k, v) -> row ("metrics:" ^ label) k (string_of_int v))
        [ ("rounds", m.rounds); ("activations", m.activations);
          ("register_writes", m.register_writes); ("wasted_steps", m.wasted_steps);
          ("skipped_activations", m.skipped_activations); ("peak_bits", m.peak_bits);
          ("faults_injected", m.faults_injected); ("alarms_raised", m.alarms_raised);
          ("alarms_cleared", m.alarms_cleared);
          ("monitor_violations", m.monitor_violations) ])
    t.metrics;
  List.iter
    (fun (label, h) ->
      List.iter
        (fun (k, v) -> row ("hist:" ^ label) k v)
        [ ("count", string_of_int (Hist.count h));
          ("min", string_of_int (Hist.min_value h));
          ("p50", string_of_int (Hist.p50 h)); ("p90", string_of_int (Hist.p90 h));
          ("p99", string_of_int (Hist.p99 h));
          ("max", string_of_int (Hist.max_value h));
          ("mean", Fmt.str "%.2f" (Hist.mean h)) ])
    t.hists;
  (match t.phases with
  | None -> ()
  | Some ledger ->
      let rec phase_rows path (p : Telemetry.phase) =
        let path = if path = "" then p.name else path ^ "/" ^ p.name in
        row "phase" path
          (Fmt.str "calls %d, rounds %d, activations %d, writes %d, peak %d bits" p.calls
             p.rounds p.activations p.writes p.peak_bits);
        List.iter (phase_rows path) (Telemetry.children p)
      in
      phase_rows "" (Telemetry.root ledger));
  List.iteri (fun i s -> row "note" (string_of_int i) s) t.notes;
  Buffer.contents buf

(* ---------------- JSON ---------------- *)

let to_json t =
  let str s = Fmt.str {|"%s"|} (Trace.json_escape s) in
  let scenario =
    String.concat ","
      (List.map (fun (k, v) -> Fmt.str "%s:%s" (str k) (str v)) t.scenario)
  in
  let metrics =
    String.concat ","
      (List.map (fun (label, m) -> Metrics.to_json ~label m) t.metrics)
  in
  let hists =
    String.concat "," (List.map (fun (label, h) -> Hist.to_json ~label h) t.hists)
  in
  let monitors =
    String.concat ","
      (List.map
         (fun (name, v) -> Fmt.str "%s:%s" (str name) (Monitor.verdict_to_json v))
         t.monitors)
  in
  let notes = String.concat "," (List.map str t.notes) in
  Fmt.str
    {|{"title":%s,"scenario":{%s},"monitors":{%s},"monitors_ok":%b,"metrics":[%s],"histograms":[%s],"phases":%s,"notes":[%s]}|}
    (str t.title) scenario monitors (all_monitors_ok t) metrics hists
    (match t.phases with None -> "null" | Some ledger -> Telemetry.to_json ledger)
    notes
