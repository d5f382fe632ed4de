(* The KKM pipeline benchmark: one process, one caller, one domain.

   Usage: perfbench.exe --workload W --seed N --seconds S --trace 0|1
          [--out DIR]

   Each run builds its input graph from the seed ([setup]), then repeats
   the workload's pipeline pass on that graph until [--seconds] have
   elapsed (at least one pass).  Every pass is closed-loop: the next call
   into the library starts when the previous one has returned.  Timing is
   taken from outside, around calls to the library's public functions;
   correctness checks and direct per-layer timings run between the timed
   segments and are never counted.

   [--trace 0] prints the end-to-end metrics.  [--trace 1] splits the
   [--seconds] in two: untraced passes, then as many seconds of passes with
   the Telemetry profiler installed through Probe; it prints the per-layer
   metrics: direct per-layer timings and counts from the untraced passes,
   self time per span from the traced ones, and the tracing overhead.  It
   also writes a self-time table and a Chrome trace to [--out].

   The last line of standard output is one JSON object:
   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
   Every exact count (simulated rounds, activations, writes, victims,
   bits) must repeat across the passes of a run, between traced and
   untraced passes, and across runs of one seed with one binary (recorded
   under [--out]/counts); otherwise the run reports a failure and no
   numbers. *)

open Ssmst_graph
open Ssmst_sim
open Ssmst_core
module Probe = Ssmst_parallel.Probe
module Telemetry = Ssmst_obs.Telemetry

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Workload sizes                                                      *)
(* ------------------------------------------------------------------ *)

(* construct runs SYNC_MST and the marker on many graphs per pass, so
   that one seed's timing does not hang on one graph's shape, and so that
   latency_ms.p90 has more than ten constructions beyond it *)
let construct_n = 256
let construct_graphs = 128
let verify_n = 64

(* verify's instance is built (SYNC_MST + marker, ~1 ms) this many times
   per pass, all timed; construct_s is one construction, so it rests on
   this many samples per pass instead of one *)
let verify_constructs = 8

(* fault trials per verify pass; each runs at least a horizon of
   2 * window_bound rounds after its injection, so the work per pass does
   not depend on how fast the fault is caught *)
let verify_trials = 1

(* Theorem 8.5's O(log^2 n) detection budget, with the constant the
   repository's fuzz tests use; a fault caught after the horizon but within
   this budget is on time (n = 64, seed 24: 650 rounds, horizon 640) *)
let detect_budget n = 400 * (Memory.of_nat n + 2) * (Memory.of_nat n + 2)

(* rounds of the Flat leg; also the round at which Make's registers are
   snapshotted for the byte-identity check *)
let flat_rounds = 100
let bfs_n = 16_384
let burst_faults = 64
let sync_bursts = 256
let async_bursts = 128

(* a burst (or the election) that needs more rounds than this to fall
   quiet fails its check *)
let quiet_cap = 1000

(* ------------------------------------------------------------------ *)
(* Statistics and bookkeeping                                          *)
(* ------------------------------------------------------------------ *)

(* Linear interpolation between closest ranks. *)
let quantile q = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = int_of_float pos in
      if i + 1 >= Array.length a then a.(i)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5

(* Neighbours on a shared host slow this process by 1.3-2x most of the
   time, in stretches of 0.1 s to several seconds, with short undisturbed
   windows in between.  Identical work repeated over the passes of a run is
   reported at its fastest execution ([best], as timeit does): a median
   would follow whichever share of the run happened to be disturbed.  This
   only settles if each timed segment is short (milliseconds, so that it
   fits in an undisturbed window) and is repeated over many passes (tens,
   spread over the whole run), which is what the workload sizes above are
   chosen for.  Per-layer measurements, which mix different calls, use the
   lower quartile ([robust]). *)
let best = function [] -> nan | x :: xs -> List.fold_left Float.min x xs
let robust = quantile 0.25
let attempted = ref 0
let failed = ref 0

let check name ok =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.eprintf "check failed: %s\n%!" name
  end

(* One pipeline pass: its timed segments, the latency samples, the exact
   counts and the direct per-layer measurements.  Every pass of a run does
   the same work, so segments and samples line up position by position
   across passes. *)
type pass = {
  mutable setup_s : float;
  mutable segs : float list;  (* timed segments, newest first *)
  mutable construct : float list;  (* construct_s samples *)
  mutable ops : float list;  (* latency_ms samples, in seconds *)
  mutable counts : (string * int) list;
  mutable layer : (string * float) list;
}

let new_pass () = { setup_s = 0.; segs = []; construct = []; ops = []; counts = []; layer = [] }
let seg p d = p.segs <- d :: p.segs

let timed p f =
  let t0 = now () in
  let r = f () in
  seg p (now () -. t0);
  r

(* Harness work between timed segments: checks, fault-target selection,
   direct layer timings.  Its own span keeps it out of the layers' self
   time in the traced run. *)
let untimed f = Probe.with_ "harness" f

(* The costly output checks run on the first pass of a run only; later
   passes must reproduce its exact counts. *)
let first_pass = ref true
let on_first_pass f = if !first_pass then untimed f
(* An exact count; a key counted several times in a pass (construct's
   graphs) reports its maximum. *)
let count p k v = p.counts <- (k, v) :: p.counts

(* A direct per-call measurement; reported as the lower quartile over all
   calls of the run. *)
let layer p k v = p.layer <- (k, v) :: p.layer

(* A per-pass total, summed over the pass. *)
let total p k v =
  p.layer <-
    (match List.assoc_opt k p.layer with
    | Some x -> (k, x +. v) :: List.remove_assoc k p.layer
    | None -> (k, v) :: p.layer)

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let ms_quantiles p name q samples = layer p name (1000. *. quantile q samples)

(* Median wall seconds of [reps] calls of [f], divided by [per]. *)
let per_call ?(reps = 5) ~per f =
  f ();
  median
    (List.init reps (fun _ ->
         let t0 = now () in
         f ();
         (now () -. t0) /. float_of_int per))

let list_digest xs = List.fold_left (fun h x -> ((h * 1_000_003) + x + 1) land max_int) 17 xs

(* ------------------------------------------------------------------ *)
(* Construction: SYNC_MST, then the marker's label assembly            *)
(* ------------------------------------------------------------------ *)

let construct p g =
  let w0 = Gc.minor_words () and t0 = now () in
  let r = Probe.with_ "sync_mst" (fun () -> Sync_mst.run g) in
  let w1 = Gc.minor_words () and t1 = now () in
  let m =
    Probe.with_ "marker" (fun () ->
        Marker.of_hierarchy
          ~construction_rounds:(r.rounds + Marker.partition_rounds r.hierarchy)
          r.hierarchy)
  in
  let w2 = Gc.minor_words () and t2 = now () in
  seg p (t2 -. t0);
  p.construct <- (t2 -. t0) :: p.construct;
  total p "sync_mst.wall_s" (t1 -. t0);
  total p "sync_mst.minor_mwords" ((w1 -. w0) /. 1e6);
  total p "marker.assemble_s" (t2 -. t1);
  total p "marker.assemble_minor_mwords" ((w2 -. w1) /. 1e6);
  count p "sync_mst.phases" r.phases;
  count p "sync_mst.rounds" r.rounds;
  count p "sync_mst.peak_bits" r.peak_bits;
  count p "construction_rounds" m.construction_rounds;
  count p "label_bits" m.label_bits;
  count p "mst.digest"
    (list_digest
       (List.init (Graph.n g) (fun v ->
            match Tree.parent r.tree v with None -> -1 | Some u -> u)));
  (r, m)

(* The one-pass static oracle: every node's 1-round structural
   predicates hold on the marker's labels.  Range-sharded and
   AND-reduced, run on the calling domain. *)
let certificate_ok (m : Marker.t) =
  let g = m.graph in
  let module P = Verifier.Make (struct
    let marker = m
    let mode = Verifier.Passive
  end) in
  let n = Graph.n g in
  let st = Array.init n (P.init g) in
  let read u = st.(u) in
  let shards = 8 in
  List.for_all
    (fun w ->
      let lo, hi = Ssmst_parallel.Domain_pool.slice ~domains:shards n w in
      let ok = ref true in
      for v = lo to hi - 1 do
        match P.diagnose g v st.(v) read with [] -> () | _ :: _ -> ok := false
      done;
      !ok)
    (List.init shards Fun.id)

let check_construction g (r : Sync_mst.result) m =
  check "SYNC_MST output is the MST (Kruskal)" (Mst.is_mst g (Graph.plain_weight_fn g) r.tree);
  check "construction rounds within Marker.linear_bound" (Marker.linear_bound m);
  check "static certificate: diagnose is empty at every node" (certificate_ok m)

let construct_pass p ~micro:_ ~seed:_ gs =
  List.iter
    (fun g ->
      let r, m = construct p g in
      count p "node_bits" m.label_bits;
      on_first_pass (fun () -> check_construction g r m))
    gs;
  p.ops <- p.construct

(* ------------------------------------------------------------------ *)
(* Verify: settle, semantic-fault trials, Flat leg                     *)
(* ------------------------------------------------------------------ *)

(* (node, part, own-index, level) of every live stored piece — one whose
   fragment intersects the part carrying it (a dead-cargo piece is
   semantically null and never detected) — restricted to the top two
   levels present: the F-DT fault rule. *)
let fault_targets (m : Marker.t) =
  let g = m.graph in
  let frags = Hashtbl.create 256 in
  Array.iter
    (fun (f : Fragment.t) ->
      let key = (f.level, Graph.id g f.root) in
      if not (Hashtbl.mem frags key) then Hashtbl.add frags key f)
    m.hierarchy.frags;
  let acc = ref [] in
  Array.iteri
    (fun v (l : Marker.node_label) ->
      let consider which (pl : Partition.node_part_label) part_ix =
        let part = m.assignment.parts.(part_ix) in
        Array.iteri
          (fun k (pc : Pieces.t) ->
            match Hashtbl.find_opt frags (pc.level, pc.root_id) with
            | Some f when List.exists (Fragment.mem f) part.Partition.members ->
                acc := (v, which, k, pc.level) :: !acc
            | Some _ | None -> ())
          pl.own
      in
      consider `Top l.top m.assignment.top_of.(v);
      consider `Bottom l.bot m.assignment.bot_of.(v))
    m.labels;
  let best = List.fold_left (fun b (_, _, _, l) -> max b l) (-1) !acc in
  List.rev !acc
  |> List.filter (fun (_, _, _, l) -> l >= max 1 (best - 1))
  |> Array.of_list

(* Perturb one live piece's weight: every 1-round check still passes and
   only the train-borne comparisons can expose it. *)
let corrupt_live_piece rng (s : Verifier.state) which k =
  let bump (pl : Partition.node_part_label) =
    let own = Array.copy pl.own in
    let w = own.(k).weight in
    own.(k) <- { (own.(k)) with weight = { w with base = w.base + 1 + Random.State.int rng 7 } };
    { pl with own }
  in
  let label =
    match which with
    | `Top -> { s.label with top = bump s.label.top }
    | `Bottom -> { s.label with bot = bump s.label.bot }
  in
  { s with label; cmp = Verifier.cmp_init; alarm = false }

(* Direct codec timings over a register file, per node. *)
module Codec_timing (P : Protocol.PACKED) = struct
  let measure p g regs words =
    let n = Graph.n g in
    let states = Array.init n (fun v -> P.unpack g v regs (v * words)) in
    let buf = Array.make (n * words) 0 in
    layer p "codec.unpack_us"
      (1e6
      *. per_call ~per:n (fun () ->
             for v = 0 to n - 1 do
               ignore (Sys.opaque_identity (P.unpack g v regs (v * words)))
             done));
    layer p "codec.pack_us"
      (1e6
      *. per_call ~per:n (fun () ->
             for v = 0 to n - 1 do
               P.pack g v states.(v) buf (v * words)
             done))
end

let verify_pass p ~micro ~seed g =
  let r, m = construct p g in
  on_first_pass (fun () -> check_construction g r m);
  for _ = 2 to verify_constructs do
    ignore (construct p g)
  done;
  let module P = Verifier.Make (struct
    let marker = m
    let mode = Verifier.Passive
  end) in
  let module Net = Network.Make (P) in
  let module F = Network.Flat (P) in
  let n = Graph.n g in
  (* settle length and trial horizon alike *)
  let horizon = 2 * Verifier.window_bound m.labels.(0) in
  let net = timed p (fun () -> Net.create g) in
  (* one Make round: its own timed segment and latency sample *)
  let timed_round span f =
    let t0 = now () in
    let r = Probe.with_ span f in
    let d = now () -. t0 in
    seg p d;
    p.ops <- d :: p.ops;
    r
  in
  let make_round () = timed_round "make.round" (fun () -> Net.round net Scheduler.Sync) in
  let reference = ref [||] in
  let w0 = Gc.minor_words () in
  for round = 1 to horizon do
    make_round ();
    if round = flat_rounds then untimed (fun () -> reference := Array.copy (Net.states net))
  done;
  layer p "make.minor_words_per_round" ((Gc.minor_words () -. w0) /. float_of_int horizon);
  ms_quantiles p "make.round_ms.p50" 0.5 p.ops;
  ms_quantiles p "make.round_ms.p90" 0.9 p.ops;
  untimed (fun () ->
      check "no alarm while the verifier settles" ((Net.metrics net).alarms_raised = 0));
  let snapshot = timed p (fun () -> Array.copy (Net.states net)) in
  let targets = untimed (fun () -> fault_targets m) in
  check "the F-DT rule finds a live piece" (Array.length targets > 0);
  let rng = Random.State.make [| seed; 1 |] in
  let dts = ref [] and dists = ref [] in
  if Array.length targets > 0 then
    for _ = 1 to verify_trials do
      timed p (fun () -> Net.restore net snapshot);
      let v, which, k, _ = targets.(Random.State.int rng (Array.length targets)) in
      let faulty = corrupt_live_piece rng (Net.state net v) which k in
      let t0 = now () in
      Probe.with_ "fault" (fun () -> Net.set_state net v faulty);
      let d = now () -. t0 in
      seg p d;
      layer p "fault.inject_us" (1e6 *. d);
      (* detection_time one round per call, so that each round stays a
         short timed segment; dt is the rounds up to the first alarm *)
      let rec detect k =
        if k >= detect_budget n then None
        else
          match
            timed_round "make.detect" (fun () ->
                Net.detection_time net Scheduler.Sync ~max_rounds:1)
          with
          | Some d -> Some (k + d)
          | None -> detect (k + 1)
      in
      let dt = detect 0 in
      untimed (fun () -> check "semantic fault detected within the Theorem 8.5 budget" (dt <> None));
      match dt with
      | None -> ()
      | Some dt ->
          dts := dt :: !dts;
          dists := Option.value ~default:(-1) (Net.detection_distance net ~faults:[ v ]) :: !dists;
          for _ = dt + 1 to horizon do
            make_round ()
          done
    done;
  let mm = Net.metrics net in
  count p "make.activations" mm.activations;
  count p "make.register_writes" mm.register_writes;
  count p "make.wasted_steps" mm.wasted_steps;
  count p "make.skipped_activations" mm.skipped_activations;
  count p "make.rounds" mm.rounds;
  count p "fault.victims" (List.length !dts);
  count p "detect_rounds.max" (List.fold_left max 0 !dts);
  count p "detect_distance.max" (List.fold_left max 0 !dists);
  count p "detect.digest" (list_digest (!dts @ !dists));
  layer p "make.useful_ratio" (ratio mm.register_writes mm.activations);
  (* the Flat leg: the same verifier from init on the packed engine *)
  let fl = timed p (fun () -> F.create g) in
  let flat_samples = ref [] in
  let w0 = Gc.minor_words () in
  for _ = 1 to flat_rounds do
    let t0 = now () in
    Probe.with_ "flat.round" (fun () -> F.round fl Scheduler.Sync);
    let d = now () -. t0 in
    seg p d;
    flat_samples := d :: !flat_samples
  done;
  layer p "flat.minor_words_per_round" ((Gc.minor_words () -. w0) /. float_of_int flat_rounds);
  ms_quantiles p "flat.round_ms.p50" 0.5 !flat_samples;
  let words = F.words fl in
  on_first_pass (fun () ->
      let packed = Array.make (n * words) 0 in
      Array.iteri (fun v s -> P.pack g v s packed (v * words)) !reference;
      check "Flat registers byte-identical to Make at the same round" (F.registers fl = packed));
  let fm = F.metrics fl in
  count p "flat.activations" fm.activations;
  count p "flat.register_writes" fm.register_writes;
  count p "flat.skipped_activations" fm.skipped_activations;
  layer p "flat.useful_ratio" (ratio fm.register_writes fm.activations);
  count p "codec.words" words;
  count p "register_bits" (64 * words);
  count p "node_bits" (64 * words);
  if micro then
    untimed (fun () ->
        let read u = snapshot.(u) in
        let w0 = Gc.minor_words () in
        let step_s =
          per_call ~per:n (fun () ->
              for v = 0 to n - 1 do
                ignore (Sys.opaque_identity (P.step g v snapshot.(v) read))
              done)
        in
        layer p "verifier.step_us" (1e6 *. step_s);
        layer p "verifier.step_minor_words" ((Gc.minor_words () -. w0) /. float_of_int (6 * n));
        let module T = Codec_timing (P) in
        T.measure p g (F.registers fl) words)

(* ------------------------------------------------------------------ *)
(* bfs-churn: ss-bfs election, then crash-reset bursts, on Flat        *)
(* ------------------------------------------------------------------ *)

(* The final configuration is the BFS tree rooted at the maximum id. *)
let bfs_tree_ok g (state : int -> Ssmst_protocols.Ss_bfs.state) =
  let n = Graph.n g in
  let root = ref 0 in
  for v = 1 to n - 1 do
    if Graph.id g v > Graph.id g !root then root := v
  done;
  let root = !root in
  let dist = Dist.bfs g root and leader = Graph.id g root in
  let ok = ref true in
  for v = 0 to n - 1 do
    let s = state v in
    let parent_ok =
      if v = root then s.parent = -1
      else s.parent >= 0 && Graph.has_edge g v s.parent && dist.(s.parent) = dist.(v) - 1
    in
    if s.leader <> leader || s.dist <> dist.(v) || not parent_ok then ok := false
  done;
  !ok

let bfs_pass ~async p ~micro ~seed g =
  let module P = Ssmst_protocols.Ss_bfs.P in
  let module F = Network.Flat (P) in
  let daemon =
    if async then Scheduler.Async_random (Random.State.make [| seed; 2 |]) else Scheduler.Sync
  in
  let fl = timed p (fun () -> F.create g) in
  let round_samples = ref [] and total_rounds = ref 0 in
  (* run until two consecutive rounds write nothing; returns the rounds'
     wall times, newest first *)
  let until_quiet () =
    let quiet = ref 0 and times = ref [] and rounds = ref 0 in
    while !quiet < 2 && !rounds < quiet_cap do
      let w = (F.metrics fl).register_writes in
      let t0 = now () in
      Probe.with_ "flat.round" (fun () -> F.round fl daemon);
      times := (now () -. t0) :: !times;
      incr rounds;
      if (F.metrics fl).register_writes = w then incr quiet else quiet := 0
    done;
    round_samples := !times @ !round_samples;
    total_rounds := !total_rounds + !rounds;
    (!rounds, !quiet >= 2, !times)
  in
  let w0 = Gc.minor_words () in
  (* each election round is its own segment: the dense early rounds
     dominate construct_s *)
  let elect_rounds, settled, times = until_quiet () in
  List.iter (seg p) times;
  p.construct <- times;
  untimed (fun () -> check "election falls quiet" settled);
  count p "ss_bfs.elect_rounds" elect_rounds;
  let rng = Random.State.make [| seed; 1 |] in
  let model = Fault.make ~severity:Fault.Crash_reset ~count:burst_faults () in
  let recover = ref [] and acts = ref [] and victims = ref 0 in
  for _ = 1 to if async then async_bursts else sync_bursts do
    let a0 = (F.metrics fl).activations in
    let t0 = now () in
    let vs = Probe.with_ "fault" (fun () -> F.inject fl rng model) in
    let t1 = now () in
    let rounds, quiet, _ = until_quiet () in
    let t2 = now () in
    seg p (t2 -. t0);
    p.ops <- (t2 -. t0) :: p.ops;
    layer p "fault.inject_us" (1e6 *. (t1 -. t0));
    untimed (fun () -> check "burst falls quiet" quiet);
    victims := !victims + List.length vs;
    recover := rounds :: !recover;
    acts := ((F.metrics fl).activations - a0) :: !acts
  done;
  let per_round = (Gc.minor_words () -. w0) /. float_of_int !total_rounds in
  layer p "flat.minor_words_per_round" per_round;
  if async then layer p "async.minor_words_per_round" per_round;
  ms_quantiles p "flat.round_ms.p50" 0.5 !round_samples;
  on_first_pass (fun () ->
      check "final configuration is the BFS tree of the max-id leader" (bfs_tree_ok g (F.state fl)));
  let fm = F.metrics fl in
  let ints = List.map float_of_int in
  count p "fault.victims" !victims;
  count p "ss_bfs.recover.digest" (list_digest (!recover @ !acts));
  layer p "ss_bfs.recover_rounds.p50" (median (ints !recover));
  layer p "ss_bfs.burst_activations.p50" (median (ints !acts));
  count p "flat.activations" fm.activations;
  count p "flat.register_writes" fm.register_writes;
  count p "flat.skipped_activations" fm.skipped_activations;
  count p "flat.rounds" fm.rounds;
  layer p "flat.useful_ratio" (ratio fm.register_writes fm.activations);
  count p "codec.words" (F.words fl);
  count p "register_bits" (64 * F.words fl);
  count p "node_bits" (64 * F.words fl);
  if micro then
    untimed (fun () ->
        let module T = Codec_timing (P) in
        T.measure p g (F.registers fl) (F.words fl);
        if async then begin
          let n = Graph.n g in
          let d = Scheduler.Async_random (Random.State.make [| seed; 3 |]) in
          layer p "scheduler.schedule_us"
            (1e6 *. per_call ~per:1 (fun () -> ignore (Scheduler.round_schedule d n)))
        end)

(* ------------------------------------------------------------------ *)
(* Workloads and metrics                                               *)
(* ------------------------------------------------------------------ *)

type workload = {
  name : string;
  gen : int -> Graph.t list;  (* the inputs, from the seed *)
  run : pass -> micro:bool -> seed:int -> Graph.t list -> unit;
  construct_reps : int;  (* constructions per pass that repeat one another *)
}

let random ?(graphs = 1) n seed =
  List.init graphs (fun k -> Gen.random_connected (Random.State.make [| seed; 10 + k |]) n)

let stream n seed = [ Gen.stream_random ~seed n ]

(* verify and bfs-churn* run on a single graph *)
let single run p ~micro ~seed = function
  | [ g ] -> run p ~micro ~seed g
  | _ -> invalid_arg "single: one input graph expected"

let workloads =
  [
    { name = "construct"; gen = random ~graphs:construct_graphs construct_n; run = construct_pass;
      construct_reps = 1 };
    { name = "verify"; gen = random verify_n; run = single verify_pass;
      construct_reps = verify_constructs };
    { name = "bfs-churn"; gen = stream bfs_n; run = single (bfs_pass ~async:false);
      construct_reps = 1 };
    { name = "bfs-churn-async"; gen = stream bfs_n; run = single (bfs_pass ~async:true);
      construct_reps = 1 };
  ]

let end_to_end =
  [
    ("setup_s", "s");
    ("pipeline_s", "s");
    ("construct_s", "s");
    ("latency_ms.p50", "ms");
    ("latency_ms.p90", "ms");
    ("peak_rss_mb", "MB");
    ("node_bits", "bits");
  ]

let spans =
  [
    "pipeline"; "graph"; "sync_mst"; "marker"; "make.round"; "make.detect"; "make.frontier";
    "make.compute"; "make.apply"; "flat.round"; "flat.frontier"; "flat.compute"; "flat.apply";
    "fault";
  ]

let per_layer =
  [
    ("sync_mst.wall_s", "s");
    ("sync_mst.minor_mwords", "Mwords");
    ("sync_mst.phases", "count");
    ("construction_rounds", "rounds");
    ("marker.assemble_s", "s");
    ("marker.assemble_minor_mwords", "Mwords");
    ("label_bits", "bits");
    ("verifier.step_us", "us");
    ("verifier.step_minor_words", "words");
    ("codec.unpack_us", "us");
    ("codec.pack_us", "us");
    ("codec.words", "words");
    ("register_bits", "bits");
    ("make.activations", "count");
    ("make.register_writes", "count");
    ("make.useful_ratio", "ratio");
    ("make.minor_words_per_round", "words");
    ("make.round_ms.p50", "ms");
    ("make.round_ms.p90", "ms");
    ("detect_rounds.max", "rounds");
    ("detect_distance.max", "hops");
    ("flat.activations", "count");
    ("flat.skipped_activations", "count");
    ("flat.useful_ratio", "ratio");
    ("flat.minor_words_per_round", "words");
    ("flat.round_ms.p50", "ms");
    ("scheduler.schedule_us", "us");
    ("async.minor_words_per_round", "words");
    ("fault.inject_us", "us");
    ("fault.victims", "count");
    ("ss_bfs.elect_rounds", "rounds");
    ("ss_bfs.recover_rounds.p50", "rounds");
    ("ss_bfs.burst_activations.p50", "count");
    ("trace.overhead_pct", "%");
  ]
  @ List.map (fun s -> (s ^ ".self_s", "s")) spans

let vm_hwm_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | exception End_of_file -> nan
    | line -> (
        try Scanf.sscanf line "VmHWM: %d kB" (fun k -> float_of_int k /. 1024.)
        with Scanf.Scan_failure _ | Failure _ | End_of_file -> go ())
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

let find_count passes name =
  match passes with
  | [] -> None
  | p :: _ -> (
      match List.filter_map (fun (k, v) -> if k = name then Some v else None) p.counts with
      | [] -> None
      | vs -> Some (float_of_int (List.fold_left max min_int vs)))

(* Each position's fastest value over samples that line up across passes. *)
let columns_best = function
  | [] -> []
  | first :: _ as rows ->
      let rows = List.map Array.of_list rows in
      List.init (List.length first) (fun j -> best (List.map (fun r -> r.(j)) rows))

let sum = List.fold_left ( +. ) 0.

(* The pipeline time with each segment at its fastest over the passes: a
   slow phase of the host that covers part of the run does not move it. *)
let best_pipeline passes = sum (columns_best (List.map (fun p -> p.segs) passes))

(* A per-layer metric: the lower quartile of a direct measurement over the
   untraced passes, else an exact count, else 0 (the layer does not run
   on this workload). *)
let layer_value passes name =
  match List.concat_map (fun p -> List.filter_map (fun (k, v) -> if k = name then Some v else None) p.layer) passes with
  | _ :: _ as vs -> robust vs
  | [] -> Option.value ~default:0. (find_count passes name)

let print_result ~correct metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit, v) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct !attempted !failed body

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* Passes until [seconds] have elapsed, at least one.  Each pass builds
   its graph from the seed (the setup sample), then runs the pipeline on
   it, so setup samples spread over the whole run like the passes do.
   [after] runs between passes. *)
let run_passes ?(after = ignore) w ~seed ~seconds ~check ~micro =
  let t_start = now () in
  let rec go acc i =
    if i > 0 && now () -. t_start >= seconds then List.rev acc
    else begin
      Gc.full_major ();
      let p = new_pass () in
      first_pass := check && i = 0;
      let t0 = now () in
      let gs = Probe.with_ "graph" (fun () -> w.gen seed) in
      p.setup_s <- now () -. t0;
      Probe.with_ "pipeline" (fun () -> w.run p ~micro:(micro && i = 0) ~seed gs);
      after ();
      go (p :: acc) (i + 1)
    end
  in
  go [] 0

(* The exact counts must repeat across runs of one seed with one binary:
   the first run records them, later runs compare. *)
let repeat_ok ~out ~workload ~seed counts =
  let dir = Filename.concat out "counts" in
  mkdir_p dir;
  let exe = Digest.to_hex (Digest.file Sys.executable_name) in
  let path = Filename.concat dir (Printf.sprintf "%s-%s-%d.txt" exe workload seed) in
  let text = String.concat "\n" (List.map (fun (k, v) -> Printf.sprintf "%s %d" k v) counts) in
  if Sys.file_exists path then In_channel.with_open_bin path In_channel.input_all = text
  else (write_file path text; true)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let out = ref ".bench_out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  construct | verify | bfs-churn | bfs-churn-async");
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_float seconds, "S  measuring time per run");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer traced (1) metrics");
      ("--out", Arg.Set_string out, "DIR  trace, self-time table and count records");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload W --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace takes 0 or 1"; exit 2);
  let traced = !trace = 1 in
  (* a traced run measures as long as an untraced one, half of it traced *)
  let seconds = if traced then !seconds /. 2. else !seconds in
  let passes = run_passes w ~seed:!seed ~seconds ~check:true ~micro:traced in
  let tel = Telemetry.create () in
  let self = Selftime.create tel in
  let traced_passes, self_tables =
    if not traced then ([], [])
    else begin
      (* one self-time table per traced pass: (span, self s, calls) *)
      let tables = ref [] in
      let after () =
        tables := List.map (fun s -> (s, (Selftime.self_s self s, Selftime.calls self s))) spans :: !tables;
        Selftime.reset self
      in
      Probe.install (Selftime.sink self);
      let traced_passes =
        Fun.protect ~finally:Probe.uninstall (fun () ->
            run_passes ~after w ~seed:!seed ~seconds ~check:false ~micro:false)
      in
      (traced_passes, !tables)
    end
  in
  let all = passes @ traced_passes in
  let first = List.hd passes in
  let same =
    List.for_all
      (fun p ->
        p.counts = first.counts
        && List.compare_lengths p.segs first.segs = 0
        && List.compare_lengths p.ops first.ops = 0
        && List.compare_lengths p.construct first.construct = 0)
      all
  in
  let counts = first.counts in
  check "exact counts repeat across passes (and traced vs untraced)" same;
  let repeat = repeat_ok ~out:!out ~workload:w.name ~seed:!seed (List.rev counts) in
  check "exact counts repeat across runs of this seed" repeat;
  (* each operation at its fastest over the passes *)
  let ops = columns_best (List.map (fun p -> p.ops) passes) in
  let pipeline = best_pipeline passes in
  Printf.printf "workload %s, seed %d: %d passes (%d traced), %d segments and %d operations per pass\n"
    w.name !seed (List.length passes) (List.length traced_passes) (List.length first.segs)
    (List.length ops);
  let metrics =
    if not traced then
      let v = function
        | "setup_s" -> best (List.map (fun p -> p.setup_s) passes)
        | "pipeline_s" -> pipeline
        | "construct_s" ->
            sum (columns_best (List.map (fun p -> p.construct) passes))
            /. float_of_int w.construct_reps
        | "latency_ms.p50" -> 1000. *. quantile 0.5 ops
        | "latency_ms.p90" -> 1000. *. quantile 0.9 ops
        | "peak_rss_mb" -> vm_hwm_mb ()
        | name -> layer_value passes name
      in
      List.map (fun (name, unit) -> (name, unit, v name)) end_to_end
    else begin
      let traced_pipeline = best_pipeline traced_passes in
      let self_s s = robust (List.map (fun t -> fst (List.assoc s t)) self_tables) in
      let v name =
        if name = "trace.overhead_pct" then 100. *. (traced_pipeline -. pipeline) /. pipeline
        else
          match List.find_opt (fun s -> name = s ^ ".self_s") spans with
          | Some s -> self_s s
          | None -> layer_value passes name
      in
      (* the self-time table and the Chrome trace; shares are of the
         spans' summed self time, i.e. of a traced pass with its setup *)
      let self_total = sum (List.map self_s spans) in
      let rows =
        List.filter_map
          (fun s ->
            let v = self_s s in
            if v > 0. then
              Some (Printf.sprintf "| %s | %d | %.6f | %.1f |" s
                      (snd (List.assoc s (List.hd self_tables))) v (100. *. v /. self_total))
            else None)
          spans
      in
      let table =
        String.concat "\n"
          ([ Printf.sprintf "self time per span, %s seed %d (lower quartile of %d traced passes; calls from the last)"
               w.name !seed (List.length self_tables);
             "| span | calls | self s | % of self time |"; "|---|---|---|---|" ]
          @ rows)
        ^ "\n"
      in
      print_string table;
      mkdir_p !out;
      let stem = Filename.concat !out (Printf.sprintf "%s-seed%d" w.name !seed) in
      write_file (stem ^ ".selftime.md") table;
      write_file (stem ^ ".trace.json") (Telemetry.to_chrome_trace tel);
      Printf.printf "wrote %s.selftime.md and %s.trace.json\n" stem stem;
      List.map (fun (name, unit) -> (name, unit, v name)) per_layer
    end
  in
  List.iter (fun (name, _, v) -> check (name ^ " is a finite number") (Float.is_finite v)) metrics;
  let correct = !failed = 0 in
  if not (same && repeat) then (print_result ~correct [] ; exit 1);
  print_result ~correct metrics;
  if not correct then exit 1
