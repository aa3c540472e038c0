(* Monotonic clock and in-memory spans. Spans are recorded only while
   [enabled] is set, kept in memory, and written out once at the end. *)

let now_ns () = Monotonic_clock.now ()
let ms_between a b = Int64.to_float (Int64.sub b a) /. 1e6

(* Time [f ()], returning its result and elapsed milliseconds. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, ms_between t0 (now_ns ()))

type span = {
  id : int;
  parent : int;  (** -1 for a top-level span *)
  name : string;
  start_ns : int64;
  mutable stop_ns : int64;
}

let enabled = ref false
let spans : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []

(* Run [f ()] inside a span named [name] when tracing is on; a plain call
   otherwise. *)
let span name f =
  if not !enabled then f ()
  else begin
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let s = { id = !next_id; parent; name; start_ns = now_ns (); stop_ns = 0L } in
    incr next_id;
    stack := s.id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.stop_ns <- now_ns ();
        stack := List.tl !stack;
        spans := s :: !spans)
      f
  end

let duration_ms s = ms_between s.start_ns s.stop_ns

(* Self time per span: its duration minus that of its direct children
   (spans nest strictly, the benchmark being single-threaded). *)
let self_times all =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration_ms s +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.))
    all;
  List.map
    (fun s -> (s, duration_ms s -. Option.value (Hashtbl.find_opt child s.id) ~default:0.))
    all

(* Self times of the spans recorded since the last [drain], oldest first. *)
let recorded_self_times () = self_times (List.rev !spans)

(* Take and clear the spans recorded since the last call. *)
let drain () =
  let all = List.rev !spans in
  spans := [];
  all

(* One JSON object per span, in start order, times relative to the first. *)
let write_jsonl path all =
  let all = List.sort (fun a b -> compare a.id b.id) all in
  let oc = open_out path in
  let t0 = match all with s :: _ -> s.start_ns | [] -> 0L in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%S,\"start_us\":%.3f,\"end_us\":%.3f}\n"
        s.id s.parent s.name
        (ms_between t0 s.start_ns *. 1e3)
        (ms_between t0 s.stop_ns *. 1e3))
    all;
  close_out oc
