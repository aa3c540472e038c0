(* The closed loop shared by the workloads: one client, rounds run back to
   back until the run has lasted the requested seconds. A round is one
   pass over the seeded inputs on freshly set-up contexts; only its
   requests are timed. Set-up is timed per round and reported as the
   median; the first round's also carries the process's one-off lazy
   set-up (the memoized built-in universe), which is reported on its own
   as setup.universe_ms. A traced run alternates untraced and traced
   rounds, so that one process yields both the per-layer numbers and the
   tracing overhead. [inputs] draws a round's inputs from its index, for
   workloads whose inputs differ from round to round.

   Every time is reported at reference speed: the reference workload of
   [Calibration] runs before the first round and after each round, and a
   round's times are scaled by [Calibration.nominal_ms] over the mean of
   the two reference times around it. *)

module Vfs = Ospack_vfs.Vfs

type round = {
  setup_ms : float;  (** set-up of this round's contexts *)
  timed_ms : float;  (** sum of the round's request latencies *)
  latencies : float list;  (** one per request, ms *)
  work : int;  (** work items completed (queries, nodes) *)
  attempted : int;
  failed : int;
  layers : (string * float) list;  (** per-layer values, traced rounds only *)
}

type metric = { name : string; value : float; unit_ : string }

type result = {
  attempted : int;
  failed : int;
  metrics : metric list;
  spans : Trace.span list;
}

(* --- counters read from the program's public state ------------------- *)

let vfs_names = [ "vfs.stat"; "vfs.read"; "vfs.write"; "vfs.mkdir"; "vfs.link"; "vfs.unlink"; "vfs.readdir" ]

let vfs_snapshot vfss =
  let fields v =
    let (c : Vfs.counters) = Vfs.counters v in
    [| c.stat; c.read; c.write; c.mkdir; c.link; c.unlink; c.readdir |]
  in
  List.fold_left (fun acc v -> Array.map2 ( + ) acc (fields v)) (Array.make 7 0) vfss

(* Sum per-layer values key by key. *)
let add_layers a b =
  List.fold_left
    (fun acc (k, v) ->
      (k, v +. Option.value (List.assoc_opt k acc) ~default:0.) :: List.remove_assoc k acc)
    a b

(* The Vfs operations on [vfss] and the Gc work that [f] causes. *)
let measure vfss f =
  let words (s : Gc.stat) = s.minor_words +. s.major_words -. s.promoted_words in
  let v0 = vfs_snapshot vfss and g0 = Gc.quick_stat () in
  let r = f () in
  let v1 = vfs_snapshot vfss and g1 = Gc.quick_stat () in
  ( r,
    List.mapi (fun i n -> (n, float (v1.(i) - v0.(i)))) vfs_names
    @ [ ("gc.alloc_mwords", (words g1 -. words g0) /. 1e6);
        ("gc.minor_collections", float (g1.minor_collections - g0.minor_collections));
        ("gc.major_collections", float (g1.major_collections - g0.major_collections)) ] )

(* Sum of a layer's self time over spans, ms. *)
let busy selfs name =
  List.fold_left
    (fun acc ((s : Trace.span), self) -> if s.name = name then acc +. self else acc)
    0. selfs

(* Measured time the layer spans under the requests do not cover: the
   harness's own work between calls plus anything the decomposition
   misses. *)
let unattributed spans ~timed_ms =
  let ops = Hashtbl.create 256 in
  List.iter (fun (s : Trace.span) -> if s.parent < 0 then Hashtbl.replace ops s.id ()) spans;
  timed_ms
  -. List.fold_left
       (fun acc (s : Trace.span) ->
         if Hashtbl.mem ops s.parent then acc +. Trace.duration_ms s else acc)
       0. spans

(* Every per-layer metric, in output order; a workload that never calls a
   layer reports 0 for it. The six after these are computed by [run]. *)
let layer_metrics =
  [ ("ccache.lookups", "count"); ("ccache.hit_ratio", "ratio");
    ("ccache.lookup_busy_ms", "ms"); ("ccache.store_busy_ms", "ms");
    ("ccache.save_calls", "count"); ("ccache.save_busy_ms", "ms");
    ("ccache.save_bytes", "bytes"); ("ccache.save_ms_growth", "ratio");
    ("parser.busy_ms", "ms");
    ("backends.solve_calls", "count"); ("backends.solve_busy_ms", "ms");
    ("backends.solve_p50_us", "us");
    ("multiroot.solve_ms", "ms");
    ("installer.busy_ms", "ms"); ("installer.node_ms_growth", "ratio");
    ("installer.index_bytes", "bytes"); ("installer.index_bytes_per_node", "bytes");
    ("installer.built", "count"); ("installer.reused", "count");
    ("installer.cache_hits", "count"); ("installer.cache_misses", "count");
    ("env.install_ms", "ms"); ("env.replay_ms", "ms");
    ("buildcache.push_ms", "ms"); ("buildcache.hit_ratio", "ratio");
    ("environment.read_lock_ms", "ms"); ("environment.install_locked_ms", "ms");
    ("environment.sync_view_ms", "ms") ]
  @ List.map (fun n -> (n, "count")) vfs_names
  @ [ ("gc.alloc_mwords", "Mwords"); ("gc.minor_collections", "count");
      ("gc.major_collections", "count") ]

(* --- the loop ---------------------------------------------------------- *)

let min_rounds = 3

(* A round's times scaled by [k]: set-up, requests, and the per-layer
   values that are times (named [*_ms] or [*_us]). *)
let scale k (r : round) =
  let is_time n = String.ends_with ~suffix:"_ms" n || String.ends_with ~suffix:"_us" n in
  { r with
    setup_ms = r.setup_ms *. k;
    timed_ms = r.timed_ms *. k;
    latencies = List.map (fun l -> l *. k) r.latencies;
    layers = List.map (fun (n, v) -> (n, if is_time n then v *. k else v)) r.layers }

let run ~seconds ~traced ~lazy_setup_ms ~(inputs : int -> 'a) ~(round : 'a -> traced:bool -> round) =
  let t0 = Trace.now_ns () in
  let rounds = ref [] and spans = ref [] in
  let reference = ref (Calibration.time ()) and references = ref [] in
  while
    Trace.ms_between t0 (Trace.now_ns ()) < seconds *. 1000.
    || List.length !rounds < min_rounds * if traced then 2 else 1
  do
    let tr = traced && List.length !rounds mod 2 = 1 in
    let x = inputs (List.length !rounds) in
    (* every round starts from a settled heap, not from the previous
       round's garbage or that of drawing its inputs *)
    Gc.full_major ();
    Trace.enabled := tr;
    let r = round x ~traced:tr in
    let r = if !rounds = [] then { r with setup_ms = r.setup_ms +. lazy_setup_ms } else r in
    Trace.enabled := false;
    let round_spans = Trace.drain () in
    spans := List.rev_append round_spans !spans;
    let r =
      if tr then
        { r with layers = ("trace.unattributed_ms", unattributed round_spans ~timed_ms:r.timed_ms) :: r.layers }
      else r
    in
    let after = Calibration.time () in
    let k = Calibration.nominal_ms /. ((!reference +. after) /. 2.) in
    references := after :: !references;
    reference := after;
    rounds := (tr, scale k r) :: !rounds
  done;
  let reference_ms = Stats.median !references in
  Printf.eprintf "reference workload: median %.1f ms over %d rounds; times are scaled to %g ms\n%!"
    reference_ms (List.length !rounds) Calibration.nominal_ms;
  let all = List.rev !rounds in
  let plain = List.filter_map (fun (tr, r) -> if tr then None else Some r) all in
  let traced_rounds = List.filter_map (fun (tr, r) -> if tr then Some r else None) all in
  let attempted = List.fold_left (fun a (_, (r : round)) -> a + r.attempted) 0 all in
  let failed = List.fold_left (fun a (_, (r : round)) -> a + r.failed) 0 all in
  (* throughput, median latency and tail are medians over rounds of each
     round's value, so that a round the reference scaling misjudges moves
     them only when most rounds do. Every round makes the same number of
     requests, so the tail is the same percentile in each; over the
     pooled samples of a run, the percentile would step up whenever more
     rounds fit in the run, on a faster machine. *)
  let tails = List.map (fun r -> Stats.tail r.latencies) plain in
  let tail_pct = match tails with (p, _) :: _ -> p | [] -> 0. in
  let per_round = match plain with r :: _ -> List.length r.latencies | [] -> 0 in
  Printf.eprintf "tail = p%g of each round's %d requests, median over %d untraced rounds\n%!"
    tail_pct per_round (List.length plain);
  let m name value unit_ = { name; value; unit_ } in
  let top = (Gc.quick_stat ()).top_heap_words in
  let metrics =
    if not traced then
      [ m "setup_s" (Stats.median (List.map (fun (_, r) -> r.setup_ms) all) /. 1000.) "s";
        m "throughput_per_s"
          (Stats.median (List.map (fun r -> float r.work /. (r.timed_ms /. 1000.)) plain))
          "1/s";
        m "latency_p50_ms" (Stats.median (List.map (fun r -> Stats.median r.latencies) plain)) "ms";
        m "latency_tail_ms" (Stats.median (List.map snd tails)) "ms";
        m "peak_heap_mb" (float (top * (Sys.word_size / 8)) /. 1048576.) "MB" ]
    else
      let layer name =
        let vs = List.filter_map (fun r -> List.assoc_opt name r.layers) traced_rounds in
        Stats.median vs
      in
      let traced_ms = Stats.median (List.map (fun r -> r.timed_ms) traced_rounds) in
      let plain_med = Stats.median (List.map (fun r -> r.timed_ms) plain) in
      List.map (fun (name, unit_) -> m name (layer name) unit_) layer_metrics
      @ [ m "setup.universe_ms" lazy_setup_ms "ms";
          m "calibration.reference_ms" reference_ms "ms";
          m "trace.overhead_pct" ((traced_ms /. plain_med -. 1.) *. 100.) "%";
          m "trace.unattributed_ms" (layer "trace.unattributed_ms") "ms";
          m "latency.tail_pct" tail_pct "percentile";
          m "latency.samples" (float per_round) "count";
          m "error_rate" (float failed /. float (max 1 attempted)) "ratio" ]
  in
  { attempted; failed; metrics; spans = List.rev !spans }
