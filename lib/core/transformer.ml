open Ssmst_graph
open Ssmst_sim

(* The enhanced Awerbuch-Varghese resynchronizer (Section 10, Theorems 10.1
   and 10.3): compose a non-stabilizing construction algorithm with a
   self-stabilizing checker to obtain a self-stabilizing algorithm whose
   time is O(T_construct + n) and whose detection time and distance are
   those of the checker.

   The runtime alternates two regimes:

   - CONSTRUCT: a self-stabilizing leader election / BFS spanning tree
     ([1, 28]-style, see {!Ssmst_protocols.Ss_bfs}) provides the reset
     backbone and the size/diameter bounds the original transformer assumed
     known; SYNC_MST then recomputes the MST and the marker re-assigns all
     labels.  Charged at its measured ideal-time cost, O(n).
   - VERIFY: the Section 7-8 verifier runs forever as the checker.  Any
     alarm at any node triggers a reset wave (O(n)) back to CONSTRUCT.

   Faults that corrupt the output after stabilization are detected within
   the verifier's detection time — O(log² n) synchronous rounds or
   O(Δ log³ n) asynchronous ones — at distance O(f log n) from the faults,
   and repaired by one reconstruction.

   Every construct-verify-repair cycle reports through
   {!Ssmst_parallel.Probe} as an [epoch k] phase, with SYNC_MST's
   fragment levels nested under its [construct] phase and an [inject] and
   a [detect] phase for each injection and injection-to-alarm window.
   When a {!observatory} config is supplied, the live verification network
   carries the online invariant monitors through the engine's round hook.
   Monitor verdicts latch across epochs: a violation in any epoch survives
   the reconstruction that discards the network it was observed on. *)

type event =
  | Constructed of int  (* rounds charged for election + SYNC_MST + marker *)
  | Detected of { rounds : int; distance : int option }  (* verification-phase detection *)
  | Quiescent of int  (* verification rounds with no alarm *)

(* Cheap read-only accessors into the live verification network, re-bound at
   every [install]: the observatory's report drivers read per-node register
   sizes and last-write rounds without the network's module escaping. *)
type probe = {
  net_metrics : Metrics.t;
  net_last_write : int -> int;
  net_bits : int -> int;
  net_rounds : unit -> int;
}

type observatory = {
  monitor_trace : Trace.t option;  (* violations land here *)
  monitors : bool;
  compact_c : int;
  distance_c : int;
}

let observatory ?monitor_trace ?(monitors = true)
    ?(compact_c = Ssmst_obs.Monitor.default_compact_c)
    ?(distance_c = Ssmst_obs.Monitor.default_distance_c) () =
  { monitor_trace; monitors; compact_c; distance_c }

let no_observatory =
  { monitor_trace = None; monitors = false; compact_c = 0; distance_c = 0 }

type t = {
  graph : Graph.t;
  mode : Verifier.mode;
  daemon : Scheduler.t;
  domains : int;  (* sync-round worker domains on the verification network *)
  obs : observatory;
  mutable marker : Marker.t;
  mutable total_rounds : int;
  mutable reconstructions : int;
  mutable history : event list;
  mutable peak_bits : int;
  (* the live verification network, existentially packed *)
  mutable run_verify : int -> [ `Alarm of int * int option | `Quiet ];
  mutable inject : Random.State.t -> Fault.t -> int list;
  mutable monitor : Ssmst_obs.Monitor.t option;  (* on the live network *)
  mutable monitor_verdicts : (string * Ssmst_obs.Monitor.verdict) list;  (* latched *)
  mutable probe : probe option;
}

(* Cost of one construction epoch: leader election + bounds (O(n)), then
   SYNC_MST + marker (O(n), measured). *)
let construction_cost (g : Graph.t) (m : Marker.t) =
  (4 * Graph.n g) + m.construction_rounds

(* ---------------- phases ---------------- *)

module Probe = Ssmst_parallel.Probe

(* Everything done between two reconstructions — the construction, the
   quiet verification rounds, injections, the detection and its reset
   wave — runs in the phase [epoch k], k the number of constructions
   before it; each call re-enters the same phase. *)
let in_epoch k f = Probe.with_ (Fmt.str "epoch %d" k) f

(* One construction as a [construct] phase: SYNC_MST and the marker charge
   their own timetable rounds; the election's O(n) and the label
   high-water are charged here. *)
let construct_marker (g : Graph.t) =
  Probe.with_ "construct" @@ fun () ->
  let m = Marker.run g in
  Probe.charge ~rounds:(4 * Graph.n g) ~peak_bits:m.Marker.label_bits ();
  m

(* Latch [fresh] monitor verdicts over the accumulated ones: the first
   violation per monitor wins, across epochs. *)
let merge_verdicts latched fresh =
  List.map2
    (fun (name, old) (_, now) ->
      (name, match old with Ssmst_obs.Monitor.Violation _ -> old | Ok -> now))
    latched fresh

let flush_monitor (t : t) =
  match t.monitor with
  | None -> ()
  | Some mon ->
      t.monitor_verdicts <- merge_verdicts t.monitor_verdicts (Ssmst_obs.Monitor.results mon);
      t.monitor <- None

let monitor_results (t : t) =
  match t.monitor with
  | None -> t.monitor_verdicts
  | Some mon -> merge_verdicts t.monitor_verdicts (Ssmst_obs.Monitor.results mon)

let monitors_ok (t : t) =
  List.for_all (fun (_, v) -> Ssmst_obs.Monitor.verdict_ok v) (monitor_results t)

(* ---------------- the regimes ---------------- *)

let install (t : t) =
  let m = t.marker in
  let module C = struct
    let marker = m
    let mode = t.mode
  end in
  let module P = Verifier.Make (C) in
  let module Net = Network.Make (P) in
  let net = Net.create ~domains:t.domains t.graph in
  t.probe <-
    Some
      {
        net_metrics = Net.metrics net;
        net_last_write = Net.last_write_round net;
        net_bits = (fun v -> P.bits (Net.state net v));
        net_rounds = (fun () -> Net.rounds net);
      };
  flush_monitor t;
  if t.obs.monitors then begin
    let view =
      {
        Ssmst_obs.Monitor.graph = t.graph;
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
      Ssmst_obs.Monitor.create ?trace:t.obs.monitor_trace ~metrics:(Net.metrics net)
        ~compact_c:t.obs.compact_c ~distance_c:t.obs.distance_c view
    in
    t.monitor <- Some mon;
    Net.set_round_hook net (fun () -> Ssmst_obs.Monitor.check mon ~round:(Net.rounds net))
  end;
  let run_with_faults faults budget =
    let executed, reached = Net.run_until net t.daemon ~max_rounds:budget Net.any_alarm in
    t.peak_bits <- max t.peak_bits (Net.peak_bits net);
    if reached then `Alarm (executed, Net.detection_distance net ~faults) else `Quiet
  in
  t.run_verify <- run_with_faults [];
  t.inject <-
    (fun st model ->
      let faults = Net.inject net st model in
      (match t.monitor with
      | Some mon -> Ssmst_obs.Monitor.note_injection mon ~round:(Net.rounds net) ~faults
      | None -> ());
      t.run_verify <- run_with_faults faults;
      faults)

(* Start from an arbitrary initial configuration: the transformer's first
   act is a reconstruction. *)
let create ?(mode = Verifier.Passive) ?(daemon = Scheduler.Sync) ?(domains = 1)
    ?(obs = no_observatory) g =
  let marker = in_epoch 0 (fun () -> construct_marker g) in
  let t =
    {
      graph = g;
      mode;
      daemon;
      domains = max 1 domains;
      obs;
      marker;
      total_rounds = 0;
      reconstructions = 0;
      history = [];
      peak_bits = 0;
      run_verify = (fun _ -> `Quiet);
      inject = (fun _ _ -> []);
      monitor = None;
      monitor_verdicts =
        List.map (fun n -> (n, Ssmst_obs.Monitor.Ok)) Ssmst_obs.Monitor.names;
      probe = None;
    }
  in
  let cost = construction_cost g t.marker in
  t.total_rounds <- cost;
  t.reconstructions <- 1;
  t.history <- [ Constructed cost ];
  install t;
  t

let reconstruct (t : t) =
  in_epoch t.reconstructions @@ fun () ->
  (match t.monitor with
  | Some mon -> Ssmst_obs.Monitor.note_reset mon ~round:t.total_rounds
  | None -> ());
  t.marker <- construct_marker t.graph;
  let cost = construction_cost t.graph t.marker in
  t.total_rounds <- t.total_rounds + cost;
  t.reconstructions <- t.reconstructions + 1;
  t.history <- Constructed cost :: t.history;
  install t

(* Run the verification regime for [rounds]; on detection, reconstruct. *)
let advance (t : t) ~rounds =
  let alarmed =
    in_epoch (t.reconstructions - 1) @@ fun () ->
    match t.run_verify rounds with
    | `Quiet ->
        t.total_rounds <- t.total_rounds + rounds;
        Probe.charge ~rounds ();
        t.history <- Quiescent rounds :: t.history;
        false
    | `Alarm (dt, dist) ->
        Probe.with_ "detect" (fun () -> Probe.charge ~rounds:dt ());
        Probe.charge ~rounds:(2 * Graph.n t.graph) ();  (* the reset wave *)
        t.total_rounds <- t.total_rounds + dt + (2 * Graph.n t.graph);
        t.history <- Detected { rounds = dt; distance = dist } :: t.history;
        true
  in
  if alarmed then reconstruct t

(* Apply a typed fault model to the running verification network: the
   epoch re-injection path shares the campaign subsystem's models. *)
let inject_model (t : t) st model =
  in_epoch (t.reconstructions - 1) @@ fun () ->
  Probe.with_ "inject" @@ fun () ->
  let faults = t.inject st model in
  Probe.charge ~writes:(List.length faults) ();
  faults

(* Inject [count] uniformly placed faults (the historical model). *)
let inject_faults (t : t) st ~count = inject_model t st (Fault.uniform ~count)

(* The current output. *)
let tree (t : t) = t.marker.tree

(* Total stabilization time from an arbitrary configuration: the first
   reconstruction (Theorem 10.2: O(n)). *)
let stabilization_rounds (t : t) =
  List.fold_left
    (fun acc e -> match e with Constructed c -> acc + c | Detected _ | Quiescent _ -> acc)
    0
    (List.filteri (fun i _ -> i = List.length t.history - 1) t.history)

let memory_bits (t : t) = max t.peak_bits t.marker.label_bits
