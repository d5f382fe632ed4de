open Ssmst_graph
open Ssmst_sim
open Ssmst_obs

(* Scenario drivers for [msst report]: run one of the repo's standard
   scenarios — construct, verify, stabilize, campaign — with the full
   observatory attached (the phase ledger, log-bucketed histograms, online
   invariant monitors) and return one {!Report.t} combining everything.
   Every phase reports through {!Ssmst_parallel.Probe}; an engine phase is
   charged its {!Metrics} delta ({!Metrics.phase}).

   This is the only module that knows both the protocol stack and the
   observatory; {!Ssmst_obs} itself stays below the protocols so the engine
   can feed it. *)

type params = {
  family : string;
  n : int;
  seed : int;
  faults : int;
  async : bool;
  epochs : int;  (* stabilize: fault-injection epochs *)
  trials : int;  (* campaign: seeds per fault model *)
  max_rounds : int;  (* detection budget *)
  domains : int;  (* sync-round worker domains (verify/stabilize/campaign) *)
  compact_c : int;
  distance_c : int;
}

let default_params =
  {
    family = "random";
    n = 64;
    seed = 42;
    faults = 1;
    async = false;
    epochs = 3;
    trials = 3;
    max_rounds = 20000;
    domains = 1;
    compact_c = Monitor.default_compact_c;
    distance_c = Monitor.default_distance_c;
  }

let scenario_names = [ "construct"; "verify"; "stabilize"; "campaign" ]

let graph_of p = Verifier_campaign.graph_of_family p.family (Gen.rng p.seed) p.n

let base_scenario name p =
  [
    ("scenario", name);
    ("family", p.family);
    ("n", string_of_int p.n);
    ("seed", string_of_int p.seed);
    ("daemon", if p.async then "async-random" else "sync");
  ]

let report name p extra =
  Report.create
    ~title:(Fmt.str "msst report — %s (%s, n = %d)" name p.family p.n)
    ~scenario:(base_scenario name p @ extra)
    ()

(* ---------------- construct ---------------- *)

let construct_marker g = Ssmst_parallel.Probe.with_ "construct" (fun () -> Marker.run g)

(* The marker pipeline as one [construct] phase; the monitors run once over
   the static output (alarms are vacuous — nothing executes afterwards). *)
let construct p =
  let g = graph_of p in
  let m = construct_marker g in
  let label_hist = Hist.create () in
  Array.iter (fun l -> Hist.record label_hist (Marker.label_bits l)) m.Marker.labels;
  let depth_hist = Hist.create () in
  for v = 0 to Graph.n g - 1 do
    Hist.record depth_hist (Tree.depth m.Marker.tree v)
  done;
  let version = ref 0 in
  let view =
    {
      Monitor.graph = g;
      parent = Tree.parent m.Marker.tree;
      bits = (fun v -> Marker.label_bits m.Marker.labels.(v));
      alarm = (fun _ -> false);
      peak_bits = (fun () -> m.Marker.label_bits);
      any_alarm = (fun () -> false);
      change_counter =
        (fun () ->
          incr version;
          !version);
    }
  in
  let mon = Monitor.create ~compact_c:p.compact_c ~distance_c:p.distance_c view in
  Monitor.check mon ~round:m.Marker.construction_rounds;
  let r = report "construct" p [ ("threshold", string_of_int m.Marker.assignment.Partition.threshold) ] in
  Report.add_hist r "per-node label bits" label_hist;
  Report.add_hist r "node depth in the MST" depth_hist;
  Report.set_monitors r (Monitor.results mon);
  Report.add_note r
    (Fmt.str "MST weight %d (matches Kruskal: %b); %d fragments, hierarchy height %d"
       (Tree.total_base_weight m.Marker.tree)
       (Mst.is_mst g (Graph.plain_weight_fn g) m.Marker.tree)
       (Array.length m.Marker.hierarchy.Fragment.frags)
       m.Marker.hierarchy.Fragment.height);
  Report.add_note r
    (Fmt.str "construction: %d charged rounds; max label %d bits (ceil(log2 n) = %d)"
       m.Marker.construction_rounds m.Marker.label_bits (Memory.of_nat p.n));
  r

(* ---------------- verify ---------------- *)

(* Settle the verifier, inject a burst, run to detection, each an engine
   phase; the monitors ride the engine's round hook the whole way. *)
let verify p =
  let g = graph_of p in
  let m = construct_marker g in
  let mode = if p.async then Verifier.Handshake else Verifier.Passive in
  let daemon = if p.async then Scheduler.Async_random (Gen.rng (p.seed + 1)) else Scheduler.Sync in
  let module C = struct
    let marker = m
    let mode = mode
  end in
  let module P = Verifier.Make (C) in
  let module Net = Network.Make (P) in
  let tr = Trace.create () in
  let net = Net.create ~domains:p.domains g in
  let phase name f = Metrics.phase (Net.metrics net) name f in
  let view =
    {
      Monitor.graph = g;
      parent = Tree.parent m.Marker.tree;
      bits = (fun v -> P.bits (Net.state net v));
      alarm = (fun v -> P.alarm (Net.state net v));
      peak_bits = (fun () -> Net.peak_bits net);
      any_alarm = (fun () -> Net.any_alarm net);
      change_counter =
        (fun () ->
          let mm = Net.metrics net in
          mm.Metrics.register_writes + mm.Metrics.faults_injected);
    }
  in
  let mon =
    Monitor.create ~trace:tr ~metrics:(Net.metrics net) ~compact_c:p.compact_c
      ~distance_c:p.distance_c view
  in
  Net.set_round_hook net (fun () -> Monitor.check mon ~round:(Net.rounds net));
  let settle_budget = 8 * Verifier.window_bound m.Marker.labels.(0) in
  phase "settle" (fun () -> Net.run net daemon ~rounds:settle_budget);
  let r =
    report "verify" p
      [ ("mode", if p.async then "handshake" else "passive");
        ("faults", string_of_int p.faults) ]
  in
  Report.add_note r
    (Fmt.str "settled after %d rounds; alarms after settling: %b (must be false)"
       (Net.rounds net) (Net.any_alarm net));
  let conv = Hist.create () and bits_h = Hist.create () and alarm_lat = Hist.create () in
  for v = 0 to Graph.n g - 1 do
    Hist.record conv (Net.last_write_round net v);
    Hist.record bits_h (P.bits (Net.state net v))
  done;
  if p.faults > 0 then begin
    let fs =
      phase "inject" (fun () -> Net.inject_faults net (Gen.rng (p.seed + 2)) ~count:p.faults)
    in
    Monitor.note_injection mon ~round:(Net.rounds net) ~faults:fs;
    match phase "detect" (fun () -> Net.detection_time net daemon ~max_rounds:p.max_rounds) with
    | Some dt ->
        Hist.record alarm_lat dt;
        Report.add_note r
          (Fmt.str "injected %d fault(s); detected after %d rounds at distance %s"
             (List.length fs) dt
             (match Net.detection_distance net ~faults:fs with
             | Some d -> string_of_int d
             | None -> "?"))
    | None ->
        Report.add_note r
          (Fmt.str "injected %d fault(s); no detection within %d rounds (semantically null \
                    corruption)"
             (List.length fs) p.max_rounds)
  end;
  Report.add_metrics r "verifier network" (Net.metrics net);
  Report.add_hist r "per-node register bits" bits_h;
  Report.add_hist r "per-node convergence round (last write)" conv;
  Report.add_hist r "alarm latency after injection (rounds)" alarm_lat;
  Report.set_monitors r (Monitor.results mon);
  r

(* ---------------- stabilize ---------------- *)

let stabilize p =
  let g = graph_of p in
  let tr = Trace.create () in
  let obs =
    Transformer.observatory ~monitor_trace:tr ~compact_c:p.compact_c ~distance_c:p.distance_c ()
  in
  let mode = if p.async then Verifier.Handshake else Verifier.Passive in
  let daemon = if p.async then Scheduler.Async_random (Gen.rng (p.seed + 1)) else Scheduler.Sync in
  let t = Transformer.create ~mode ~daemon ~domains:p.domains ~obs g in
  let r =
    report "stabilize" p
      [ ("faults per epoch", string_of_int p.faults); ("epochs", string_of_int p.epochs) ]
  in
  Report.add_note r
    (Fmt.str "stabilized in %d charged rounds" (Transformer.stabilization_rounds t));
  let rng = Gen.rng (p.seed + 2) in
  for _ = 1 to p.epochs do
    Transformer.advance t ~rounds:200;
    if p.faults > 0 then ignore (Transformer.inject_faults t rng ~count:p.faults);
    Transformer.advance t ~rounds:p.max_rounds
  done;
  (* the last detection installed a fresh verification network: settle it so
     the probe snapshots a live epoch (per-node convergence, register bits) *)
  Transformer.advance t ~rounds:200;
  let alarm_lat = Hist.create () in
  List.iter
    (function
      | Transformer.Detected { rounds; _ } -> Hist.record alarm_lat rounds
      | Transformer.Constructed _ | Transformer.Quiescent _ -> ())
    t.Transformer.history;
  let conv = Hist.create () and bits_h = Hist.create () in
  (match t.Transformer.probe with
  | Some pr ->
      for v = 0 to Graph.n g - 1 do
        Hist.record conv (pr.Transformer.net_last_write v);
        Hist.record bits_h (pr.Transformer.net_bits v)
      done;
      Report.add_metrics r "verifier network (final epoch)" pr.Transformer.net_metrics
  | None -> ());
  Report.add_hist r "per-node register bits" bits_h;
  Report.add_hist r "per-node convergence round (last write)" conv;
  Report.add_hist r "alarm latency after injection (rounds)" alarm_lat;
  Report.set_monitors r (Transformer.monitor_results t);
  Report.add_note r
    (Fmt.str "%d reconstructions, %d total charged rounds, peak memory %d bits; output is \
              the MST: %b"
       t.Transformer.reconstructions t.Transformer.total_rounds (Transformer.memory_bits t)
       (Mst.is_mst g (Graph.plain_weight_fn g) (Transformer.tree t)));
  r

(* ---------------- campaign ---------------- *)

(* A compact sweep on one instance: every named fault model x [trials]
   injection seeds, one [campaign-trial i] phase each; outcomes land in the
   detection-time/-distance histograms. *)
let campaign p =
  let inst =
    Verifier_campaign.prepare ~domains:p.domains ~family:p.family ~n:p.n ~seed:p.seed ()
  in
  let dt_h = Hist.create () and dd_h = Hist.create () and rounds_h = Hist.create () in
  let detected = ref 0 and total = ref 0 in
  let idx = ref 0 in
  List.iter
    (fun model_name ->
      for k = 0 to p.trials - 1 do
        incr idx;
        let i = !idx in
        Ssmst_parallel.Probe.with_ (Fmt.str "campaign-trial %d" i) (fun () ->
            let model =
              Campaign.resolve_model model_name ~n:p.n ~root:(Verifier_campaign.root inst)
                ~count:p.faults
            in
            let o =
              Verifier_campaign.run_trial ~domains:p.domains inst ~model
                ~inject_seed:(p.seed + (7919 * i) + k)
                ~max_rounds:p.max_rounds
            in
            Ssmst_parallel.Probe.charge ~rounds:o.Campaign.rounds_run
              ~writes:o.Campaign.injections ();
            incr total;
            Hist.record rounds_h o.Campaign.rounds_run;
            match o.Campaign.detection_rounds with
            | Some dt ->
                incr detected;
                Hist.record dt_h dt;
                (match o.Campaign.detection_distance with
                | Some dd -> Hist.record dd_h dd
                | None -> ())
            | None -> ())
      done)
    Campaign.model_names;
  let r =
    report "campaign" p
      [
        ("models", String.concat "," Campaign.model_names);
        ("trials per model", string_of_int p.trials);
        ("faults", string_of_int p.faults);
      ]
  in
  Report.add_hist r "detection time (rounds)" dt_h;
  Report.add_hist r "detection distance (hops)" dd_h;
  Report.add_hist r "rounds run per trial" rounds_h;
  Report.add_note r (Fmt.str "%d/%d trials detected" !detected !total);
  Report.add_note r
    (Fmt.str "paper bound shape check: f * ceil(log2 n) = %d (dd_p99 observed: %d)"
       (p.faults * Memory.of_nat p.n) (Hist.p99 dd_h));
  r

let run ledger ~scenario p =
  let drive =
    match scenario with
    | "construct" -> construct
    | "verify" -> verify
    | "stabilize" -> stabilize
    | "campaign" -> campaign
    | s -> invalid_arg (Fmt.str "Observatory.run: unknown scenario %S" s)
  in
  Telemetry.install ledger;
  let r = Fun.protect ~finally:Telemetry.uninstall (fun () -> drive p) in
  Report.set_phases r ledger;
  r
