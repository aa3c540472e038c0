(* spec-sweep: one context, one client, [Commands.spec] over a seeded
   battery of the built-in universe. Chosen because its work is the
   parser, the solver backend and the ccache lookup/store/persist path,
   with no store work at all; install-synth is its control. *)

module Commands = Ospack.Commands
module Context = Ospack.Context
module Parser = Ospack_spec.Parser
module Concrete = Ospack_spec.Concrete
module Ccache = Ospack_concretize.Ccache
module Cerror = Ospack_concretize.Cerror
module Backends = Ospack_concretize.Backends
module Vfs = Ospack_vfs.Vfs
module Json = Ospack_json.Json

let render c = Json.to_string (Concrete.to_json c)

(* The traced request: [Commands.spec]'s pipeline, one public layer call
   at a time (parse, cache lookup, solve, store, persist). It solves
   unseeded, as [--fresh] and the clause backend do; the seed layer of the
   default greedy path is not reachable from outside the library, so its
   cost shows up in trace.overhead_pct instead. *)
let traced_spec (ctx : Context.t) q ~on_save =
  match Trace.span "parser" (fun () -> Parser.parse q) with
  | Error e -> Error e
  | Ok ast -> (
      match Trace.span "ccache.lookup" (fun () -> Ccache.lookup ctx.ccache ast) with
      | Some c -> Ok (c, true)
      | None -> (
          match Trace.span "backends.solve" (fun () -> Backends.solve ctx.backend ctx.cctx ast) with
          | Error e -> Error (Cerror.to_string e)
          | Ok c ->
              Trace.span "ccache.store" (fun () -> Ccache.store ctx.ccache ast c);
              Trace.span "ccache.save" (fun () -> Context.save_ccache ctx);
              on_save ();
              Ok (c, false)))

(* Size of the persisted cache file, read without counting the read in
   the program's own Vfs counters. *)
let persisted_bytes (ctx : Context.t) =
  let c = Vfs.counters ctx.vfs in
  let stat = c.stat and read = c.read in
  let n = match Vfs.read_file ctx.vfs ctx.ccache_path with Ok s -> String.length s | Error _ -> 0 in
  c.stat <- stat;
  c.read <- read;
  n

let run ~lazy_setup_ms ~seed ~seconds ~traced ~perturb =
  let battery = Gen.spec_battery ~seed in
  (* the oracle: every distinct query solved from scratch on its own context *)
  let oracle = Context.create () in
  let expected = Hashtbl.create 512 in
  Array.iter
    (fun q ->
      if not (Hashtbl.mem expected q) then
        Hashtbl.replace expected q
          (match Commands.spec ~fresh:true oracle q with Ok c -> render c | Error e -> "error: " ^ e))
    battery;
  let round () ~traced =
    let ctx, setup_ms = Trace.timed (fun () -> Context.create ()) in
    let n = Array.length battery in
    let answers = Array.make n None and lat = Array.make n 0. in
    let hits = ref 0 and save_bytes = ref 0 in
    let on_save () = save_bytes := !save_bytes + persisted_bytes ctx in
    let (), layers =
      Harness.measure [ ctx.vfs ] (fun () ->
          Array.iteri
            (fun i q ->
              let r, ms =
                Trace.timed (fun () ->
                    if traced then
                      Trace.span "spec" (fun () ->
                          match traced_spec ctx q ~on_save with
                          | Ok (c, hit) ->
                              if hit then incr hits;
                              Ok c
                          | Error e -> Error e)
                    else Commands.spec ctx q)
              in
              answers.(i) <- Result.to_option r;
              lat.(i) <- ms)
            battery)
    in
    let failed = ref 0 in
    Array.iteri
      (fun i q ->
        let got = Option.fold ~none:"" ~some:render answers.(i) in
        let got = if perturb && i = 0 then got ^ " " else got in
        if answers.(i) = None || got <> Hashtbl.find expected q then begin
          prerr_endline ("check failed: " ^ q ^ " differs from a fresh solve");
          incr failed
        end)
      battery;
    let layers =
      if not traced then []
      else
        let spans = Trace.recorded_self_times () in
        let saves =
          List.filter_map
            (fun ((s : Trace.span), self) -> if s.name = "ccache.save" then Some self else None)
            spans
        in
        let solves =
          List.filter_map
            (fun ((s : Trace.span), self) -> if s.name = "backends.solve" then Some (self *. 1e3) else None)
            spans
        in
        layers
        @ [ ("ccache.lookups", float n);
            ("ccache.hit_ratio", float !hits /. float n);
            ("ccache.lookup_busy_ms", Harness.busy spans "ccache.lookup");
            ("ccache.store_busy_ms", Harness.busy spans "ccache.store");
            ("ccache.save_calls", float (List.length saves));
            ("ccache.save_busy_ms", Harness.busy spans "ccache.save");
            ("ccache.save_bytes", float !save_bytes);
            ("ccache.save_ms_growth", Stats.growth saves);
            ("parser.busy_ms", Harness.busy spans "parser");
            ("backends.solve_calls", float (List.length solves));
            ("backends.solve_busy_ms", Harness.busy spans "backends.solve");
            ("backends.solve_p50_us", Stats.median solves) ]
    in
    let timed_ms = Array.fold_left ( +. ) 0. lat in
    { Harness.setup_ms; timed_ms; latencies = Array.to_list lat; work = n; attempted = n;
      failed = !failed; layers }
  in
  Harness.run ~seconds ~traced ~lazy_setup_ms ~inputs:ignore ~round
