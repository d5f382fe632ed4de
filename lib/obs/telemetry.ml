(* The phase ledger (see the interface).  A tree of phases rooted at
   "run": [enter] finds or adds the named child of the innermost open
   phase and pushes a frame, [leave] pops it and adds its wall/GC delta,
   [charge] adds logical cost to the root and every open phase.  A
   bounded event buffer keeps the Chrome trace.  Everything here is
   main-domain state; the worker-side protocol is "stamp with the clock,
   hand the floats back" (see Domain_pool.run). *)

(* All-float on purpose: a flat (unboxed-field) record keeps the
   per-sample allocation to one small block on the hot probe path. *)
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
  mutable children_rev : phase list;
}

type frame = { node : phase; t0 : float; g0 : gc_sample }
type event = { ename : string; tid : int; ts : float; dur : float }

type t = {
  clocked : bool;  (* false: a [logical] ledger, no physical columns *)
  clock : unit -> float;
  gc : unit -> gc_sample;
  root : phase;
  mutable stack : frame list;  (* innermost open phase first *)
  mutable events_rev : event list;
  mutable n_events : int;
  max_events : int;
  mutable dropped : int;
  t_start : float;
  g_start : gc_sample;
}

(* The live sampler has a cost budget of its own: [Gc.quick_stat] is
   ~1.2 us a call on OCaml 5 — six of those per engine round is exactly
   the overhead the PROF gate forbids.  Words are read from the exact
   ~30 ns counters ([Gc.minor_words], [Gc.counters]); collection counts
   exist only in [quick_stat], so they are served from a cache that is
   refreshed once at least half a minor heap has been allocated since the
   last refresh — before that point no un-forced minor collection can
   have happened, so the cached counts are still exact.  (A [quick_stat]
   caveat survives on OCaml 5: its own minor_words field lags between
   collections, which is why the counters are read separately.) *)
let make_live_gc () =
  let heap_half = float_of_int (Gc.get ()).Gc.minor_heap_size /. 2. in
  let cached = ref (Gc.quick_stat ()) in
  let cached_at = ref (Gc.minor_words ()) in
  fun () ->
    let mw = Gc.minor_words () in
    if mw -. !cached_at >= heap_half then begin
      cached := Gc.quick_stat ();
      cached_at := mw
    end;
    let _, _, major = Gc.counters () in
    {
      minor_words = mw;
      major_words = major;
      minor_collections = float_of_int !cached.Gc.minor_collections;
      major_collections = float_of_int !cached.Gc.major_collections;
    }

let zero_gc =
  { minor_words = 0.; major_words = 0.; minor_collections = 0.; major_collections = 0. }

let fresh name =
  {
    name;
    calls = 0;
    wall_s = 0.;
    minor_words = 0.;
    major_words = 0.;
    minor_collections = 0.;
    major_collections = 0.;
    rounds = 0;
    activations = 0;
    writes = 0;
    peak_bits = 0;
    children_rev = [];
  }

let create ?(clock = Unix.gettimeofday) ?gc ?(max_events = 200_000) () =
  let gc = match gc with Some g -> g | None -> make_live_gc () in
  let root = fresh "run" in
  root.calls <- 1;
  {
    clocked = true;
    clock;
    gc;
    root;
    stack = [];
    events_rev = [];
    n_events = 0;
    max_events;
    dropped = 0;
    t_start = clock ();
    g_start = gc ();
  }

let fake () =
  (* 1 ms per reading: big enough that %.6f-second renderings are exact,
     monotone, and independent of the machine.  Single-domain only — the
     counter is unsynchronised on purpose (workers never tick it in the
     -d 1 runs the determinism tests pin). *)
  let ticks = ref 0 in
  let clock () =
    incr ticks;
    float_of_int !ticks *. 1e-3
  in
  create ~clock ~gc:(fun () -> zero_gc) ()

let logical () =
  { (create ~clock:(fun () -> 0.) ~gc:(fun () -> zero_gc) ~max_events:0 ()) with clocked = false }

(* The root spans the whole run: every later clock reading extends it. *)
let touch t now =
  let wall = now -. t.t_start in
  if wall > t.root.wall_s then t.root.wall_s <- wall

(* The child [name] of [parent], added (newest first) on first entry.
   Probe names are mostly literals, so the physical test usually hits. *)
let child parent name =
  let rec find = function
    | c :: rest -> if c.name == name || String.equal c.name name then c else find rest
    | [] ->
        let c = fresh name in
        parent.children_rev <- c :: parent.children_rev;
        c
  in
  find parent.children_rev

let current t = match t.stack with f :: _ -> f.node | [] -> t.root

let record_event t ename tid ts dur =
  if t.n_events >= t.max_events then t.dropped <- t.dropped + 1
  else begin
    t.events_rev <- { ename; tid; ts; dur } :: t.events_rev;
    t.n_events <- t.n_events + 1
  end

let enter t name =
  let node = child (current t) name in
  t.stack <- { node; t0 = t.clock (); g0 = t.gc () } :: t.stack

let leave t _name =
  match t.stack with
  | [] -> ()
  | f :: rest when not t.clocked ->
      t.stack <- rest;
      f.node.calls <- f.node.calls + 1
  | f :: rest ->
      t.stack <- rest;
      let now = t.clock () and g1 = t.gc () in
      touch t now;
      let p = f.node and r = t.root in
      p.calls <- p.calls + 1;
      p.wall_s <- p.wall_s +. (now -. f.t0);
      p.minor_words <- p.minor_words +. (g1.minor_words -. f.g0.minor_words);
      p.major_words <- p.major_words +. (g1.major_words -. f.g0.major_words);
      p.minor_collections <- p.minor_collections +. (g1.minor_collections -. f.g0.minor_collections);
      p.major_collections <- p.major_collections +. (g1.major_collections -. f.g0.major_collections);
      r.minor_words <- g1.minor_words -. t.g_start.minor_words;
      r.major_words <- g1.major_words -. t.g_start.major_words;
      r.minor_collections <- g1.minor_collections -. t.g_start.minor_collections;
      r.major_collections <- g1.major_collections -. t.g_start.major_collections;
      record_event t p.name 0 (f.t0 -. t.t_start) (now -. f.t0)

let span t ~tid name t0 t1 =
  touch t t1;
  let p = child (current t) (Printf.sprintf "%s.d%d" name tid) in
  p.calls <- p.calls + 1;
  p.wall_s <- p.wall_s +. (t1 -. t0);
  record_event t name tid (t0 -. t.t_start) (t1 -. t0)

let charge t ~rounds ~activations ~writes ~peak_bits =
  let add p =
    p.rounds <- p.rounds + rounds;
    p.activations <- p.activations + activations;
    p.writes <- p.writes + writes;
    if peak_bits > p.peak_bits then p.peak_bits <- peak_bits
  in
  add t.root;
  List.iter (fun f -> add f.node) t.stack

let sink t =
  {
    Ssmst_parallel.Probe.now = t.clock;
    enter = enter t;
    leave = leave t;
    span = (fun ~tid name t0 t1 -> span t ~tid name t0 t1);
    charge = charge t;
  }

let install t = Ssmst_parallel.Probe.install (sink t)
let uninstall () = Ssmst_parallel.Probe.uninstall ()

let root t = t.root
let children p = List.rev p.children_rev

(* Depth-first from the root: (path, depth, phase), the rendering order. *)
let walk t =
  let rec go acc path depth p =
    let path = if depth = 0 then p.name else path ^ "/" ^ p.name in
    List.fold_left (fun acc c -> go acc path (depth + 1) c) ((path, depth, p) :: acc) (children p)
  in
  List.rev (go [] "" 0 t.root)

let phases t = List.tl (List.map (fun (_, _, p) -> p) (walk t))
let total_wall_s t = t.root.wall_s
let dropped_events t = t.dropped

let pct t p =
  let total = total_wall_s t in
  if total <= 0. then 0. else 100. *. p.wall_s /. total

(* ---------------- renderings ---------------- *)

(* The columns after the phase name, as (markdown, CSV) headers: the
   logical ones always, the physical ones when the ledger has a clock. *)
let columns t =
  [ ("calls", "calls"); ("rounds", "rounds"); ("activations", "activations");
    ("writes", "writes"); ("peak bits", "peak_bits") ]
  @
  if t.clocked then
    [ ("wall s", "wall_s"); ("%", "pct"); ("minor words", "minor_words");
      ("major words", "major_words"); ("minor gcs", "minor_collections");
      ("major gcs", "major_collections") ]
  else []

let cells t p =
  List.map string_of_int [ p.calls; p.rounds; p.activations; p.writes; p.peak_bits ]
  @
  if t.clocked then
    [
      Printf.sprintf "%.6f" p.wall_s;
      Printf.sprintf "%.1f" (pct t p);
      Printf.sprintf "%.0f" p.minor_words;
      Printf.sprintf "%.0f" p.major_words;
      Printf.sprintf "%.0f" p.minor_collections;
      Printf.sprintf "%.0f" p.major_collections;
    ]
  else []

let to_markdown t =
  let b = Buffer.create 1024 in
  let row cs = Buffer.add_string b ("| " ^ String.concat " | " cs ^ " |\n") in
  let header = "phase" :: List.map fst (columns t) in
  row header;
  row (List.map (fun _ -> "---") header);
  List.iter
    (fun (_, depth, p) ->
      let indent = String.concat "" (List.init depth (fun _ -> "· ")) in
      row ((indent ^ p.name) :: cells t p))
    (walk t);
  if t.clocked then
    Buffer.add_string b
      (Printf.sprintf "\ntotal wall: %.6f s; dropped trace events: %d\n" (total_wall_s t)
         t.dropped);
  Buffer.contents b

let to_csv t =
  let b = Buffer.create 1024 in
  Buffer.add_string b (String.concat "," ("phase" :: List.map snd (columns t)) ^ "\n");
  List.iter
    (fun (path, _, p) ->
      Buffer.add_string b
        (String.concat "," (Ssmst_sim.Trace.csv_escape path :: cells t p) ^ "\n"))
    (walk t);
  Buffer.contents b

let to_json t =
  let rec phase_json p =
    Printf.sprintf
      {|{"name":"%s","calls":%d,"rounds":%d,"activations":%d,"writes":%d,"peak_bits":%d,"wall_s":%.6f,"pct":%.1f,"minor_words":%.0f,"major_words":%.0f,"minor_collections":%.0f,"major_collections":%.0f,"children":[%s]}|}
      (Ssmst_sim.Trace.json_escape p.name)
      p.calls p.rounds p.activations p.writes p.peak_bits p.wall_s (pct t p) p.minor_words
      p.major_words p.minor_collections p.major_collections
      (String.concat "," (List.map phase_json (children p)))
  in
  Printf.sprintf {|{"clocked":%b,"total_wall_s":%.6f,"dropped_events":%d,"phases":%s}|}
    t.clocked (total_wall_s t) t.dropped (phase_json t.root)

let to_chrome_trace t =
  (* complete events ("ph":"X"), microsecond timestamps relative to the
     profiler's birth; one track (tid) per worker domain, main-domain
     phases on track 0.  Loadable as-is in chrome://tracing / Perfetto. *)
  let ev e =
    Printf.sprintf
      {|{"name":"%s","cat":"msst","ph":"X","ts":%.3f,"dur":%.3f,"pid":0,"tid":%d}|}
      (Ssmst_sim.Trace.json_escape e.ename)
      (1e6 *. e.ts) (1e6 *. e.dur) e.tid
  in
  Printf.sprintf {|{"traceEvents":[%s],"displayTimeUnit":"ms","otherData":{"dropped":%d}}|}
    (String.concat "," (List.rev_map ev t.events_rev))
    t.dropped
