open Ssmst_graph
open Ssmst_parallel

(* Executing a protocol over a graph under a daemon, with round counting,
   alarm observation, fault injection, memory accounting and (in the
   event-driven engine) tracing and work metrics.

   Two engines share one ideal-time semantics:

   - {!Naive} re-steps every node every round, exactly as the paper's model
     reads.  It is the reference oracle for differential tests and costs
     O(sum deg) protocol steps per round regardless of activity.

   - {!Engine} is the event-driven engine: it maintains a dirty set and
     steps a node only if the node itself or one of its neighbours changed
     since the node's last no-op step.  Because [Protocol.S.step] is
     deterministic in its inputs, a clean node's step is provably a no-op,
     so skipping it preserves the semantics bit-for-bit — states and round
     counts are identical to {!Naive} under every daemon (the daemons' RNG
     is consumed identically).  Self-stabilizing protocols are quiescent
     almost everywhere after convergence, so [run_until] loops cost work
     proportional to actual state churn instead of O(rounds * sum deg).
     It is written once over a register {!STORE}; {!Make} (boxed states)
     and {!Flat} (packed registers) are its two instantiations. *)

(* Telemetry probes: with a {!Probe} sink installed (msst profile, bench
   PROF), the engines report each synchronous round's wall-clock
   sub-phases — frontier scan, worker compute, effect apply — strictly
   out-of-band.  The sink is fetched once per round (disabled cost: one
   ref read), and quiescent rounds with an empty frontier skip the probes
   entirely so the enabled overhead stays off the convergence tail. *)
let penter p name = match p with None -> () | Some s -> s.Probe.enter name
let pleave p name = match p with None -> () | Some s -> s.Probe.leave name

(* ------------------------------------------------------------------ *)
(* The naive reference engine                                          *)
(* ------------------------------------------------------------------ *)

module Naive (P : Protocol.S) = struct
  type t = {
    graph : Graph.t;
    mutable states : P.state array;
    mutable rounds : int;  (* ideal time elapsed *)
    mutable peak_bits : int;
  }

  let create graph =
    let states = Array.init (Graph.n graph) (P.init graph) in
    let peak = Array.fold_left (fun acc s -> max acc (P.bits s)) 0 states in
    { graph; states; rounds = 0; peak_bits = peak }

  let graph t = t.graph
  let state t v = t.states.(v)
  let states t = t.states

  (* Peak bits are maintained incrementally: every state the network ever
     holds passes through [create], [touch] (on change) or [set_state], so
     the per-round full rescan the engine used to do is redundant. *)
  let touch t s = if P.bits s > t.peak_bits then t.peak_bits <- P.bits s

  let set_state t v s =
    t.states.(v) <- s;
    touch t s

  let rounds t = t.rounds
  let peak_bits t = t.peak_bits

  (* One synchronous round: all nodes step on a snapshot. *)
  let sync_round t =
    let snapshot = t.states in
    let read v u =
      if not (Graph.has_edge t.graph v u) then
        invalid_arg "Network.step: reading a non-neighbour"
      else snapshot.(u)
    in
    t.states <-
      Array.mapi
        (fun v s ->
          let s' = P.step t.graph v s (read v) in
          if not (P.equal s' s) then touch t s';
          s')
        snapshot;
    t.rounds <- t.rounds + 1

  (* One asynchronous round under a fair daemon: nodes fire sequentially per
     the daemon's schedule and read fresh registers. *)
  let async_round t daemon =
    let schedule = Scheduler.round_schedule daemon (Graph.n t.graph) in
    List.iter
      (fun v ->
        let read u =
          if not (Graph.has_edge t.graph v u) then
            invalid_arg "Network.step: reading a non-neighbour"
          else t.states.(u)
        in
        let s = t.states.(v) in
        let s' = P.step t.graph v s (read) in
        if not (P.equal s' s) then begin
          t.states.(v) <- s';
          touch t s'
        end
        else t.states.(v) <- s')
      schedule;
    t.rounds <- t.rounds + 1

  let round t daemon = if Scheduler.is_sync daemon then sync_round t else async_round t daemon

  let run t daemon ~rounds =
    for _ = 1 to rounds do
      round t daemon
    done

  let any_alarm t = Array.exists P.alarm t.states

  let alarming_nodes t =
    let acc = ref [] in
    Array.iteri (fun v s -> if P.alarm s then acc := v :: !acc) t.states;
    !acc

  (* Run until [stop] holds or [max_rounds] elapse; returns the number of
     rounds executed and whether [stop] was reached. *)
  let run_until t daemon ~max_rounds stop =
    let executed = ref 0 and reached = ref (stop t) in
    while (not !reached) && !executed < max_rounds do
      round t daemon;
      incr executed;
      reached := stop t
    done;
    (!executed, !reached)

  (* Rounds until the first alarm, or [None] if none within [max_rounds]. *)
  let detection_time t daemon ~max_rounds =
    let executed, reached = run_until t daemon ~max_rounds any_alarm in
    if reached then Some executed else None

  module Inject = Fault.Apply (P)

  (* Apply one burst of [model]: the victim set and the corruption order
     are deterministic (ascending node index; see {!Fault}), so identical
     seeds reproduce identical post-fault configurations. *)
  let inject t st (model : Fault.t) =
    Inject.apply st t.graph model
      ~get:(fun v -> t.states.(v))
      ~set:(fun v s' -> set_state t v s')

  (* Corrupt [count] distinct random nodes; returns the sorted list of
     faulty nodes. *)
  let inject_faults t st ~count = inject t st (Fault.uniform ~count)

  (* Max hop distance from any fault to the closest alarming node: the
     paper's detection distance (Section 2.4). *)
  let detection_distance t ~faults =
    Dist.detection_distance t.graph ~faults ~alarms:(alarming_nodes t)
end

(* ------------------------------------------------------------------ *)
(* Register stores                                                     *)
(* ------------------------------------------------------------------ *)

(* Where the event-driven engine keeps the n registers.  [set] writes a
   register immediately (async rounds, faults, [set_state]); a sync round
   instead [stage]s every changed register while the round's steps still
   read the pre-round values through [get], then [commit]s them one by
   one.  [reserve] readies the staging area and runs on the calling
   domain before any [stage], which parallel workers then call for the
   nodes they own.  [prefix] names the engine's telemetry probes. *)
module type STORE = sig
  type state
  type t

  val prefix : string
  val create : Graph.t -> (int -> state) -> t
  val get : t -> int -> state
  val set : t -> int -> state -> unit
  val reserve : t -> unit
  val stage : t -> int -> state -> unit
  val commit : t -> int -> unit
end

(* One boxed state per node: the live array is what {!Make.states}
   returns and the flight recorder aliases. *)
module Boxed (P : Protocol.S) = struct
  type state = P.state
  type t = { states : P.state array; mutable staged : P.state array }

  let prefix = "make"
  let create g init = { states = Array.init (Graph.n g) init; staged = [||] }
  let get s v = s.states.(v)

  (* keeps [staged] from holding a superseded state *)
  let set s v x =
    s.states.(v) <- x;
    if Array.length s.staged > 0 then s.staged.(v) <- x

  let reserve s =
    if Array.length s.staged <> Array.length s.states then s.staged <- Array.copy s.states

  let stage s v x = s.staged.(v) <- x
  let commit s v = s.states.(v) <- s.staged.(v)
end

(* Every register packed into one flat int array, node v at [v * words]:
   the struct-of-arrays layout that makes the paper's O(log n)-bits-per-
   node claim literal in process memory.  States are unpacked on demand
   and never cached, so resident memory stays dominated by the register
   file itself; the staging scratch file is allocated on the first sync
   round. *)
module Packed (P : Protocol.PACKED) = struct
  type state = P.state

  type t = {
    graph : Graph.t;
    words : int;  (* per-node register budget *)
    regs : int array;  (* the register file *)
    mutable scratch : int array;  (* staged register images, same layout *)
  }

  let prefix = "flat"

  let create graph init =
    let words = P.words graph in
    let regs = Array.make (Graph.n graph * words) 0 in
    for v = 0 to Graph.n graph - 1 do
      P.pack graph v (init v) regs (v * words)
    done;
    { graph; words; regs; scratch = [||] }

  let get s v = P.unpack s.graph v s.regs (v * s.words)
  let set s v x = P.pack s.graph v x s.regs (v * s.words)

  let reserve s =
    if Array.length s.scratch <> Array.length s.regs then
      s.scratch <- Array.make (Array.length s.regs) 0

  (* the codec may leave slice words untouched (keeping their previous
     value): seed the scratch slice from the live register so the commit
     blit is exact *)
  let stage s v x =
    Array.blit s.regs (v * s.words) s.scratch (v * s.words) s.words;
    P.pack s.graph v x s.scratch (v * s.words)

  let commit s v = Array.blit s.scratch (v * s.words) s.regs (v * s.words) s.words
end

(* ------------------------------------------------------------------ *)
(* The event-driven engine                                             *)
(* ------------------------------------------------------------------ *)

module Engine (P : Protocol.S) (S : STORE with type state = P.state) = struct
  (* Per-node staging of a sync round's writes, allocated on the first
     sync round.  Workers fill only the slots of the members they own. *)
  type staging = {
    bits : int array;  (* P.bits of the staged state *)
    wrote : Bytes.t;  (* '\000' nothing staged | '\001' staged | '\002' staged, alarming *)
  }

  (* Provenance buffers, allocated on the first round or write that has a
     listener.  While a step reads its ports in order, its read set is the
     ports below [seq] (no adjacency search, no mark); from its first read
     out of order on, it is the neighbours whose [read_mark] holds the
     activation's [read_stamp].  The all-ports cause is cached per node. *)
  type capture = {
    mutable seq : int;  (* -1 once reads left port order *)
    read_mark : int array;
    mutable read_stamp : int;
    full_cause : Trace.cause option array;
    cause : Trace.cause array;  (* a staged write's causal tag *)
  }

  type t = {
    graph : Graph.t;
    store : S.t;  (* live registers; mutate via [set_state] only *)
    mutable rounds : int;  (* ideal time elapsed *)
    mutable peak_bits : int;
    (* dirty set + dense member buffer: [Frontier.mem] iff v's next step
       may change its register; rounds drain the live members in ascending
       node id with zero list allocation (see {!Frontier}). *)
    frontier : Frontier.t;
    (* incremental alarm tracking: [alarm_flags.(v)] mirrors the alarm of
       v's register; [alarm_count] counts set flags. *)
    alarm_flags : bool array;
    mutable alarm_count : int;
    (* per-node last-write round: feeds per-node convergence histograms *)
    last_write : int array;
    metrics : Metrics.t;
    mutable trace : Trace.t option;
    (* called after every completed round (observability probes: online
       invariant monitors, span round attribution).  Must not mutate
       states. *)
    mutable round_hook : (unit -> unit) option;
    (* called on every register write with the old and new state and the
       causal tag (flight recorder).  Must not mutate states. *)
    mutable write_hook :
      (round:int -> node:int -> old:P.state -> P.state -> Trace.cause -> unit) option;
    mutable capture : capture option;
    mutable domains : int;  (* sync-round worker count; 1 = sequential *)
    mutable staging : staging option;
  }

  (* built once per engine, not per round *)
  let probe_frontier = S.prefix ^ ".frontier"
  let probe_compute = S.prefix ^ ".compute"
  let probe_apply = S.prefix ^ ".apply"

  (* A changed register invalidates the node's own next step and every
     neighbour's. *)
  let dirty_neighbourhood t v =
    Frontier.mark t.frontier v;
    Graph.iter_ports t.graph v (fun _ u -> Frontier.mark t.frontier u)

  let emit t e = match t.trace with None -> () | Some tr -> Trace.record tr e

  let create ?trace ?(domains = 1) graph =
    let n = Graph.n graph in
    let alarm_flags = Array.make n false in
    let peak = ref 0 and alarms = ref 0 in
    let store =
      S.create graph (fun v ->
          let s = P.init graph v in
          if P.bits s > !peak then peak := P.bits s;
          if P.alarm s then begin
            alarm_flags.(v) <- true;
            incr alarms
          end;
          s)
    in
    let t =
      {
        graph;
        store;
        rounds = 0;
        peak_bits = !peak;
        frontier = Frontier.create n;
        alarm_flags;
        alarm_count = !alarms;
        last_write = Array.make n 0;
        metrics = Metrics.create ();
        trace;
        round_hook = None;
        write_hook = None;
        capture = None;
        domains = max 1 domains;
        staging = None;
      }
    in
    t.metrics.Metrics.peak_bits <- !peak;
    t

  let graph t = t.graph
  let state t v = S.get t.store v
  let rounds t = t.rounds
  let metrics t = t.metrics
  let domains t = t.domains
  let set_domains t k = t.domains <- max 1 k
  let trace t = t.trace
  let attach_trace t tr = t.trace <- Some tr
  let detach_trace t = t.trace <- None

  (* Observability probe: [f] runs after every completed round.  Probes are
     read-only by contract — the differential suite asserts that a run with
     hooks attached stays bit-identical to the naive engine. *)
  let set_round_hook t f = t.round_hook <- Some f
  let clear_round_hook t = t.round_hook <- None
  let fire_round_hook t = match t.round_hook with None -> () | Some f -> f ()

  (* Flight-recorder probe: [f] sees every register write, after the store
     holds the new value, with the old and new states and the causal tag;
     read-only by the same contract as the round hook. *)
  let set_write_hook t f = t.write_hook <- Some f
  let clear_write_hook t = t.write_hook <- None

  (* Whether provenance (read sets, field deltas) is worth computing this
     round: someone is listening.  A listener also keeps sync rounds on
     the calling domain — read marks are shared and the events must come
     out in activation order. *)
  let capturing t =
    match (t.trace, t.write_hook) with None, None -> false | _ -> true

  let capture t =
    if not (capturing t) then None
    else
      match t.capture with
      | Some _ as c -> c
      | None ->
          let n = Graph.n t.graph in
          let c =
            Some
              {
                seq = 0;
                read_mark = Array.make n 0;
                read_stamp = 0;
                full_cause = Array.make n None;
                cause = Array.make n Trace.Init;
              }
          in
          t.capture <- c;
          c

  let full_cause t c v =
    match c.full_cause.(v) with
    | Some cause -> cause
    | None ->
        let cause = Trace.Neighbor_read (List.init (Graph.degree t.graph v) Fun.id) in
        c.full_cause.(v) <- Some cause;
        cause

  (* The ports of [v] behind the peers its last activation read, sorted
     ascending: the stable encoding of a write's causal in-edges.  When the
     step read every neighbour (the shared-register model's common case)
     the cause is the per-node cached value. *)
  let read_cause t c v =
    let deg = Graph.degree t.graph v in
    if c.seq = deg then full_cause t c v
    else if c.seq >= 0 then Trace.Neighbor_read (List.init c.seq Fun.id)
    else
      let marked p = c.read_mark.(Graph.peer_at t.graph v p) = c.read_stamp in
      let ports = List.filter marked (List.init deg Fun.id) in
      if List.compare_length_with ports deg = 0 then full_cause t c v else Trace.Neighbor_read ports

  (* The round of the most recent write to [v]'s register (0 if never
     rewritten): per-node convergence, for the observatory's histograms. *)
  let last_write_round t v = t.last_write.(v)
  let peak_bits t = t.peak_bits

  (* The field-level delta between two registers, named per
     [P.field_names]; the O(fields) cost is only paid when a trace is
     attached. *)
  let field_changes old s' =
    let oe = P.encode old and ne = P.encode s' in
    let k = min (Array.length oe) (Array.length ne) in
    let changes = ref [] in
    for i = k - 1 downto 0 do
      if oe.(i) <> ne.(i) then
        let field =
          if i < Array.length P.field_names then P.field_names.(i) else Fmt.str "f%d" i
        in
        changes := { Trace.field; old_enc = oe.(i); new_enc = ne.(i) } :: !changes
    done;
    !changes

  (* The single register-write path: every register change — immediate or
     committed from a sync round's staging — funnels through here once the
     store holds the new value, so that peak-bits, alarm counts, metrics,
     the trace, the write hook and the dirty set stay consistent without
     any per-round O(n) rescans.  [old] is the pre-write state, read only
     when someone is listening; the new one is then read back from the
     store.  [cause] tags the write's causal origin. *)
  let account t ~round ~cause ~old v ~bits ~alarm =
    if bits > t.peak_bits then t.peak_bits <- bits;
    if bits > t.metrics.Metrics.peak_bits then t.metrics.Metrics.peak_bits <- bits;
    t.metrics.Metrics.register_writes <- t.metrics.Metrics.register_writes + 1;
    t.metrics.Metrics.last_write_round <- round;
    t.last_write.(v) <- round;
    (match old with
    | None -> ()
    | Some old ->
        let s' = S.get t.store v in
        (match t.write_hook with None -> () | Some f -> f ~round ~node:v ~old s' cause);
        match t.trace with
        | None -> ()
        | Some tr ->
            let prov = Some { Trace.cause; changes = field_changes old s' } in
            Trace.record tr (Trace.Register_write { round; node = v; bits; prov }));
    if t.alarm_flags.(v) <> alarm then begin
      t.alarm_flags.(v) <- alarm;
      if alarm then begin
        t.alarm_count <- t.alarm_count + 1;
        t.metrics.Metrics.alarms_raised <- t.metrics.Metrics.alarms_raised + 1;
        emit t (Trace.Alarm_raised { round; node = v })
      end
      else begin
        t.alarm_count <- t.alarm_count - 1;
        t.metrics.Metrics.alarms_cleared <- t.metrics.Metrics.alarms_cleared + 1;
        emit t (Trace.Alarm_cleared { round; node = v })
      end
    end;
    dirty_neighbourhood t v

  (* An immediate write: async rounds, faults, [set_state]. *)
  let write t ~round ~cause v s' =
    let old = if capturing t then Some (S.get t.store v) else None in
    S.set t.store v s';
    account t ~round ~cause ~old v ~bits:(P.bits s') ~alarm:(P.alarm s')

  let set_state t v s = write t ~round:t.rounds ~cause:Trace.Init v s

  (* Metrics/trace-neutral bulk install of a register snapshot: copy the
     states in, rebuild the alarm flags/count and the dirty set, and keep
     the peak-bits high-water marks consistent.  Unlike [set_state], this
     does NOT count [register_writes], stamp [last_write], fire the write
     hook or emit [Init]-cause trace/alarm events — restoring a settled
     snapshot (the campaign-trial rewind) is bookkeeping, not protocol
     work, and must not pollute per-node convergence histograms or event
     streams. *)
  let restore t snapshot =
    if Array.length snapshot <> Graph.n t.graph then
      invalid_arg "Network.restore: snapshot size does not match the network";
    t.alarm_count <- 0;
    Array.iteri
      (fun v s ->
        S.set t.store v s;
        let a = P.alarm s in
        t.alarm_flags.(v) <- a;
        if a then t.alarm_count <- t.alarm_count + 1;
        let b = P.bits s in
        if b > t.peak_bits then t.peak_bits <- b;
        if b > t.metrics.Metrics.peak_bits then t.metrics.Metrics.peak_bits <- b)
      snapshot;
    Frontier.fill t.frontier

  (* The read closure handed to [P.step], hoisted out of the activation
     loops (one allocation per round or worker range, not per step) with
     the active node threaded through [cur].  With capture on it also
     records which neighbours the step reads (see {!capture}). *)
  let reader t cap cur =
    let g = t.graph and store = t.store in
    match cap with
    | None ->
        fun u ->
          if not (Graph.has_edge g !cur u) then
            invalid_arg "Network.step: reading a non-neighbour";
          S.get store u
    | Some c ->
        fun u ->
          let v = !cur and p = c.seq in
          if p >= 0 && p < Graph.degree g v && Graph.peer_at g v p = u then c.seq <- p + 1
          else begin
            if not (Graph.has_edge g v u) then
              invalid_arg "Network.step: reading a non-neighbour";
            (* leaving port order (when p >= 0): mark the prefix read so far *)
            for q = 0 to p - 1 do
              c.read_mark.(Graph.peer_at g v q) <- c.read_stamp
            done;
            c.seq <- -1;
            c.read_mark.(u) <- c.read_stamp
          end;
          S.get store u

  (* Start [v]'s activation: with capture on, trace it and start a fresh
     read set. *)
  let activate t cap ~round cur v =
    cur := v;
    match cap with
    | None -> ()
    | Some c ->
        (match t.trace with
        | None -> ()
        | Some tr -> Trace.record tr (Trace.Activation { round; node = v }));
        c.read_stamp <- c.read_stamp + 1;
        c.seq <- 0

  let staging t =
    match t.staging with
    | Some st -> st
    | None ->
        let n = Graph.n t.graph in
        let st = { bits = Array.make n 0; wrote = Bytes.make n '\000' } in
        t.staging <- Some st;
        st

  (* One worker's share of a sync round: step members.(lo..hi-1) against
     the pre-round registers and stage every changed one.  [w] indexes
     the private wasted-step counter.  Runs on the calling domain when
     sequential (lo = 0, hi = m) and on worker domains when parallel
     (never with capture on); either way nothing observable mutates
     before the apply loop. *)
  let compute_range t st cap ~round wasted w members lo hi =
    let cur = ref 0 in
    let read = reader t cap cur in
    for i = lo to hi - 1 do
      let v = members.(i) in
      activate t cap ~round cur v;
      let own = S.get t.store v in
      let s' = P.step t.graph v own read in
      if P.equal s' own then wasted.(w) <- wasted.(w) + 1
      else begin
        S.stage t.store v s';
        st.bits.(v) <- P.bits s';
        Bytes.set st.wrote v (if P.alarm s' then '\002' else '\001');
        match cap with None -> () | Some c -> c.cause.(v) <- read_cause t c v
      end
    done

  (* One synchronous round: the dirty nodes step on the pre-round
     registers (writes are staged), clean nodes provably wouldn't change
     and are skipped.  The sequential (k = 1) and domain-parallel (k > 1)
     cases run the same deferred round, so work accounting and effect
     order are identical by construction.  Until the barrier, workers read
     only the pre-round registers and write only the staging slots of
     members they own (contiguous slices of the ascending member array
     are node-disjoint), so domains share nothing writable.  Every
     observable effect — commits, metrics, hooks, trace events, alarm
     flags, dirty marking — happens after the barrier on the calling
     domain in ascending node id, the canonical order that keeps every
     trace/recorder artifact stable; registers and metrics are therefore
     byte-identical at every domain count.  Tiny frontiers (convergence
     tails) and rounds with a listener stay on the calling domain. *)
  let sync_round t =
    let round = t.rounds + 1 in
    let prb = if Frontier.is_empty t.frontier then None else Probe.get () in
    penter prb probe_frontier;
    let members, m = Frontier.drain t.frontier in
    pleave prb probe_frontier;
    let cap = capture t in
    let k = if Domain_pool.available && Option.is_none cap then t.domains else 1 in
    let k = if k > 1 && m >= 2 * k then k else 1 in
    let st = staging t in
    S.reserve t.store;
    let wasted = Array.make k 0 in
    penter prb probe_compute;
    if k = 1 then compute_range t st cap ~round wasted 0 members 0 m
    else
      Domain_pool.run ~domains:k (fun w ->
          let lo, hi = Domain_pool.slice ~domains:k m w in
          compute_range t st None ~round wasted w members lo hi);
    pleave prb probe_compute;
    t.metrics.Metrics.activations <- t.metrics.Metrics.activations + m;
    Array.iter
      (fun c -> t.metrics.Metrics.wasted_steps <- t.metrics.Metrics.wasted_steps + c)
      wasted;
    t.metrics.Metrics.skipped_activations <-
      t.metrics.Metrics.skipped_activations + (Graph.n t.graph - m);
    t.rounds <- round;
    t.metrics.Metrics.rounds <- t.metrics.Metrics.rounds + 1;
    penter prb probe_apply;
    for i = 0 to m - 1 do
      let v = members.(i) in
      match Bytes.get st.wrote v with
      | '\000' -> ()
      | tag ->
          Bytes.set st.wrote v '\000';
          let old = match cap with None -> None | Some _ -> Some (S.get t.store v) in
          S.commit t.store v;
          let cause = match cap with None -> Trace.Init | Some c -> c.cause.(v) in
          account t ~round ~cause ~old v ~bits:st.bits.(v) ~alarm:(tag = '\002')
    done;
    pleave prb probe_apply;
    fire_round_hook t

  (* One asynchronous round under a fair daemon: the schedule is drawn
     exactly as in {!Naive} (same RNG consumption); scheduled clean nodes
     are skipped as no-ops, dirty ones fire and read fresh registers.
     Within-round flag churn leaves stale frontier entries behind, so the
     round ends by compacting them. *)
  let async_round t daemon =
    let round = t.rounds + 1 in
    let schedule = Scheduler.round_schedule daemon (Graph.n t.graph) in
    let cap = capture t in
    let cur = ref 0 in
    let read = reader t cap cur in
    List.iter
      (fun v ->
        if Frontier.mem t.frontier v then begin
          Frontier.unmark t.frontier v;
          t.metrics.Metrics.activations <- t.metrics.Metrics.activations + 1;
          activate t cap ~round cur v;
          let own = S.get t.store v in
          let s' = P.step t.graph v own read in
          if P.equal s' own then
            t.metrics.Metrics.wasted_steps <- t.metrics.Metrics.wasted_steps + 1
          else
            let cause = match cap with None -> Trace.Init | Some c -> read_cause t c v in
            write t ~round ~cause v s'
        end
        else
          t.metrics.Metrics.skipped_activations <- t.metrics.Metrics.skipped_activations + 1)
      schedule;
    t.rounds <- round;
    t.metrics.Metrics.rounds <- t.metrics.Metrics.rounds + 1;
    Frontier.compact t.frontier;
    fire_round_hook t

  let round t daemon = if Scheduler.is_sync daemon then sync_round t else async_round t daemon

  let run t daemon ~rounds =
    for _ = 1 to rounds do
      round t daemon
    done

  let any_alarm t = t.alarm_count > 0

  let alarming_nodes t =
    let acc = ref [] in
    Array.iteri (fun v a -> if a then acc := v :: !acc) t.alarm_flags;
    !acc

  (* Run until [stop] holds or [max_rounds] elapse; returns the number of
     rounds executed and whether [stop] was reached.  Emits a
     {!Trace.Convergence} event at the stopping point. *)
  let run_until t daemon ~max_rounds stop =
    let executed = ref 0 and reached = ref (stop t) in
    while (not !reached) && !executed < max_rounds do
      round t daemon;
      incr executed;
      reached := stop t
    done;
    emit t (Trace.Convergence { round = t.rounds; reached = !reached });
    (!executed, !reached)

  (* Rounds until the first alarm, or [None] if none within [max_rounds]. *)
  let detection_time t daemon ~max_rounds =
    let executed, reached = run_until t daemon ~max_rounds any_alarm in
    if reached then Some executed else None

  module Inject = Fault.Apply (P)

  (* Apply one burst of [model].  Consumes the RNG exactly as
     {!Naive.inject} does and funnels every rewrite through the register-
     write path, so the metrics, the trace, the alarm tracking and the
     dirty set all see the fault. *)
  let inject t st (model : Fault.t) =
    Inject.apply st t.graph model ~get:(state t) ~set:(fun v s' ->
        (* injection ids number rewrites per run, in order: the causal
           terminals provenance walks resolve against *)
        let fid : Fault.id = t.metrics.Metrics.faults_injected in
        t.metrics.Metrics.faults_injected <- fid + 1;
        emit t (Trace.Fault_injected { round = t.rounds; node = v; fault = Some fid });
        write t ~round:t.rounds ~cause:(Trace.Fault fid) v s')

  (* Corrupt [count] distinct random nodes; returns the sorted list of
     faulty nodes. *)
  let inject_faults t st ~count = inject t st (Fault.uniform ~count)

  (* Max hop distance from any fault to the closest alarming node: the
     paper's detection distance (Section 2.4). *)
  let detection_distance t ~faults =
    Dist.detection_distance t.graph ~faults ~alarms:(alarming_nodes t)
end

(* The event-driven engine over boxed registers: any {!Protocol.S}, with
   the live state array exposed for the flight recorder. *)
module Make (P : Protocol.S) = struct
  module Store = Boxed (P)
  include Engine (P) (Store)

  (* The live register array (not a copy): {!Ssmst_replay.Recorder}
     aliases it. *)
  let states t = t.store.Store.states
end

(* The event-driven engine over packed registers: a {!Protocol.PACKED}
   protocol with the n registers in one flat int array — [8 * words]
   measured bytes per node, what the SCALE experiments gate against the
   modeled c·⌈log n⌉ bound.  Same rounds, hooks and tracing as {!Make};
   only the store differs, so the two stay bit-identical to each other
   (and to {!Naive}) by construction. *)
module Flat (P : Protocol.PACKED) = struct
  module Store = Packed (P)
  include Engine (P) (Store)

  let words t = t.store.Store.words

  (* A fresh array of unpacked states (a copy, unlike {!Make.states}). *)
  let states t = Array.init (Graph.n t.graph) (state t)

  (* A copy of the raw register file: the byte-identity witness the
     parallel differential tests compare across domain counts. *)
  let registers t = Array.copy t.store.Store.regs

  (* The measured per-node footprint of this engine: whole 64-bit words,
     against which {!Memory.within_log_budget} gates the modeled bound. *)
  let measured_bytes_per_node t = Memory.bytes_of_words (words t)
end
