(* install-synth: one context, one client, [Commands.install ~fresh:true]
   serially over every layer-d root of the synthetic universe. Chosen
   because its work is the builder, the installer's per-node install,
   the database and index-shard flush, and the Vfs; [~fresh] bypasses the
   ccache, so this is the control for ccache changes (as spec-sweep is
   for store changes). *)

module Commands = Ospack.Commands
module Context = Ospack.Context
module Parser = Ospack_spec.Parser
module Concrete = Ospack_spec.Concrete
module Cerror = Ospack_concretize.Cerror
module Backends = Ospack_concretize.Backends
module Installer = Ospack_store.Installer
module Database = Ospack_store.Database
module Loader = Ospack_buildsim.Loader
module Json = Ospack_json.Json

let built outcomes =
  List.length (List.filter (fun (o : Installer.outcome) -> not o.o_reused) outcomes)

(* The traced request: [Commands.install ~fresh:true]'s pipeline, one
   public layer call at a time (parse, solve, install the DAG). *)
let traced_install (ctx : Context.t) root =
  match Trace.span "parser" (fun () -> Parser.parse root) with
  | Error e -> Error e
  | Ok ast -> (
      match Trace.span "backends.solve" (fun () -> Backends.solve ctx.backend ctx.cctx ast) with
      | Error e -> Error (Cerror.to_string e)
      | Ok c -> (
          match Trace.span "installer" (fun () -> Installer.install ctx.installer c) with
          | Ok outcomes -> Ok (c, outcomes)
          | Error e -> Error e))

let index_json installer =
  Json.to_string (Database.to_json (Installer.database installer))

(* Failed checks of one round: every root indexed under its DAG hash, its
   prefix loading with an empty environment (the paper's claim 2), and a
   fresh reload of the on-disk index equal to the live database.
   [perturb] corrupts what the first two roots and the reload compare. *)
let check (ctx : Context.t) ~perturb roots results =
  let db = Installer.database ctx.installer in
  let root_failure i = function
    | None -> Some "install failed"
    | Some c -> (
        let hash = Concrete.root_hash c in
        let hash = if perturb && i = 0 then hash ^ "0" else hash in
        match Database.find_by_hash db hash with
        | Some rc when rc.Database.r_explicit -> (
            let prefix = rc.Database.r_prefix ^ if perturb && i = 1 then "-moved" else "" in
            match Loader.verify_prefix ctx.vfs ~prefix ~env:Ospack_buildsim.Env.empty with
            | Ok n when n > 0 -> None
            | Ok _ -> Some "no loadable object in prefix"
            | Error (path, f) -> Some (path ^ ": " ^ Loader.failure_to_string f))
        | _ -> Some "root not indexed under its DAG hash")
  in
  let failures =
    List.concat
      (List.mapi
         (fun i r -> Option.to_list (Option.map (fun e -> roots.(i) ^ ": " ^ e) (root_failure i r)))
         (Array.to_list results))
  in
  let fresh =
    Installer.create ~config:ctx.config ~vfs:ctx.vfs ~repo:ctx.repo ~compilers:ctx.compilers ()
  in
  let reloaded =
    match Installer.load_index fresh with
    | Ok _ -> index_json fresh ^ if perturb then " " else ""
    | Error e -> e
  in
  if reloaded = index_json ctx.installer then failures
  else failures @ [ "reloaded index differs from the live database" ]

let run ~lazy_setup_ms ~seed ~seconds ~traced ~perturb =
  let round roots ~traced =
    let ctx, setup_ms =
      Trace.timed (fun () -> Context.create ~repo:(Gen.synth_repository ()) ())
    in
    let n = Array.length roots in
    let results = Array.make n None and lat = Array.make n 0. and nodes = Array.make n 0 in
    let (), layers =
      Harness.measure [ ctx.vfs ] (fun () ->
          Array.iteri
            (fun i root ->
              let r, ms =
                Trace.timed (fun () ->
                    if traced then Trace.span "install" (fun () -> traced_install ctx root)
                    else
                      Result.map
                        (fun (ir : Commands.install_report) -> (ir.ir_spec, ir.ir_outcomes))
                        (Commands.install ~fresh:true ctx root))
              in
              lat.(i) <- ms;
              match r with
              | Ok (c, outcomes) ->
                  results.(i) <- Some c;
                  nodes.(i) <- built outcomes
              | Error _ -> ())
            roots)
    in
    (* the round's operations: one install per root and one index reload *)
    let failures = check ctx ~perturb roots results in
    List.iter (fun f -> prerr_endline ("check failed: " ^ f)) failures;
    let failed = List.length failures in
    let work = Array.fold_left ( + ) 0 nodes in
    let layers =
      if not traced then []
      else
        let spans = Trace.recorded_self_times () in
        let installs =
          List.filter_map
            (fun ((s : Trace.span), self) -> if s.name = "installer" then Some self else None)
            spans
        in
        (* per-node time of each root's install, spread over the nodes it
           built, in install order *)
        let per_node =
          List.concat
            (List.mapi
               (fun i ms -> if nodes.(i) = 0 then [] else List.init nodes.(i) (fun _ -> ms /. float nodes.(i)))
               installs)
        in
        let solves =
          List.filter_map
            (fun ((s : Trace.span), self) ->
              if s.name = "backends.solve" then Some (self *. 1e3) else None)
            spans
        in
        let st = Installer.stats ctx.installer in
        let index_bytes = float (Installer.index_bytes_written ctx.installer) in
        layers
        @ [ ("parser.busy_ms", Harness.busy spans "parser");
            ("backends.solve_calls", float (List.length solves));
            ("backends.solve_busy_ms", Harness.busy spans "backends.solve");
            ("backends.solve_p50_us", Stats.median solves);
            ("installer.busy_ms", Harness.busy spans "installer");
            ("installer.node_ms_growth", Stats.growth per_node);
            ("installer.index_bytes", index_bytes);
            ("installer.index_bytes_per_node", index_bytes /. float (max 1 work));
            ("installer.built", float st.st_built);
            ("installer.reused", float st.st_reused);
            ("installer.cache_hits", float st.st_cache_hits);
            ("installer.cache_misses", float st.st_cache_misses) ]
    in
    { Harness.setup_ms; timed_ms = Array.fold_left ( +. ) 0. lat; latencies = Array.to_list lat;
      work; attempted = n + 1; failed; layers }
  in
  Harness.run ~seconds ~traced ~lazy_setup_ms ~inputs:(fun index -> Gen.install_roots ~seed ~index) ~round
