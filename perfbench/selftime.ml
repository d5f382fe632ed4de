(* Self time per span for the traced run.

   A probe sink that forwards every event to a {!Ssmst_obs.Telemetry}
   profiler (which keeps the inclusive per-phase totals and the Chrome
   trace) and, beside it, keeps its own frame stack so that each span's
   self time — its duration minus the part covered by its child spans —
   is known exactly.  Telemetry alone cannot give this: it accumulates
   inclusive time per name, and the engines' [make.*]/[flat.*] probes
   nest under several different benchmark spans. *)

module Probe = Ssmst_parallel.Probe

type frame = { name : string; t0 : float; mutable child : float }

type t = {
  inner : Probe.sink;
  mutable stack : frame list;
  self : (string, float ref) Hashtbl.t;
  calls : (string, int ref) Hashtbl.t;
}

let create tel =
  {
    inner = Ssmst_obs.Telemetry.sink tel;
    stack = [];
    self = Hashtbl.create 16;
    calls = Hashtbl.create 16;
  }

let bump tbl name zero f =
  match Hashtbl.find_opt tbl name with
  | Some r -> r := f !r
  | None -> Hashtbl.add tbl name (ref (f zero))

let enter t name =
  t.inner.enter name;
  t.stack <- { name; t0 = Unix.gettimeofday (); child = 0. } :: t.stack

let leave t name =
  let now = Unix.gettimeofday () in
  (match t.stack with
  | [] -> ()
  | f :: rest ->
      let d = now -. f.t0 in
      bump t.self f.name 0. (fun s -> s +. d -. f.child);
      bump t.calls f.name 0 succ;
      (match rest with p :: _ -> p.child <- p.child +. d | [] -> ());
      t.stack <- rest);
  t.inner.leave name

let sink t = { t.inner with Probe.enter = enter t; leave = leave t }

(* Self seconds and call count of [name] since the last [reset]. *)
let self_s t name = match Hashtbl.find_opt t.self name with Some r -> !r | None -> 0.
let calls t name = match Hashtbl.find_opt t.calls name with Some r -> !r | None -> 0

let reset t =
  Hashtbl.reset t.self;
  Hashtbl.reset t.calls
