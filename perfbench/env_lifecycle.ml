(* env-lifecycle: the store layers of install-synth used the way an
   environment uses them. Each round solves and installs a seeded
   environment of layer-d roots, pushes the store to a binary cache, then
   replays the lockfile into a second, empty store on another filesystem
   that pulls every node from a copy of that cache. Chosen because it is
   the only workload that runs the multi-root solve, lockfile I/O,
   buildcache extraction, and views. *)

module Commands = Ospack.Commands
module Context = Ospack.Context
module Environment = Ospack.Environment
module Installer = Ospack_store.Installer
module Database = Ospack_store.Database
module Vfs = Ospack_vfs.Vfs
module Json = Ospack_json.Json

let cache_root = "/ospack/cache"
let install_root = "/ospack/opt"
let view_root = "/ospack/views/bench"
let jobs = 4

let ( let* ) = Result.bind

let read vfs path = Result.fold ~ok:Fun.id ~error:Vfs.error_to_string (Vfs.read_file vfs path)

(* Every path, file content and link target under [root]; the index
   directory is compared separately. *)
let snapshot vfs root =
  Vfs.walk vfs root
  |> List.filter_map (fun (path, kind) ->
         if String.starts_with ~prefix:(install_root ^ "/.spack-db") path then None
         else
           match kind with
           | Vfs.File -> Some (path ^ " F " ^ read vfs path)
           | Vfs.Symlink ->
               Some (path ^ " L " ^ Result.fold ~ok:Fun.id ~error:Vfs.error_to_string (Vfs.readlink vfs path))
           | Vfs.Dir -> Some (path ^ " D"))
  |> String.concat "\n"

(* The mirror sync between the two filesystems: every cache entry, then
   the lockfile. *)
let copy ~src ~dst paths =
  List.iter
    (fun path ->
      match Vfs.write_file dst path (read src path) with
      | Ok () -> ()
      | Error e -> failwith ("env-lifecycle set-up: " ^ Vfs.error_to_string e))
    paths

(* The index, record by record. Build seconds are left out: the solved
   store built every node (nonzero simulated seconds) and the replayed
   one extracted it (zero), which is the one field that must differ. *)
let index (ctx : Context.t) =
  Database.all (Installer.database ctx.installer)
  |> List.map (fun r -> Json.to_string (Database.record_to_json { r with Database.r_build_seconds = 0. }))
  |> String.concat "\n"

let make_env ctx roots =
  let* env = Environment.create ctx ~name:"bench" ~view:view_root () in
  List.fold_left (fun acc r -> let* env = acc in Environment.add ctx env r) (Ok env) roots

(* The traced requests: [Environment.install] and
   [Environment.install_locked], one public layer call at a time. *)
let install_and_view (ctx : Context.t) ~span specs =
  let* report = Trace.span span (fun () -> Installer.install_parallel ctx.installer ~jobs specs) in
  if report.Installer.pr_failures <> [] then Error (Installer.failures_to_string report.pr_failures)
  else
    let* _ =
      Trace.span "environment.sync_view" (fun () ->
          Commands.view_closure ctx ~view_root specs)
    in
    Ok (List.length report.pr_outcomes)

let traced_install (ctx : Context.t) env =
  let* pairs = Trace.span "multiroot" (fun () -> Environment.concretize_roots ctx env) in
  ignore (Trace.span "environment.read_lock" (fun () -> Environment.read_lock ctx env));
  let* () = Trace.span "environment.write_lock" (fun () -> Environment.write_lock ctx env pairs) in
  install_and_view ctx ~span:"installer" (List.map snd pairs)

let traced_replay (ctx : Context.t) env =
  match Trace.span "environment.read_lock" (fun () -> Environment.read_lock ctx env) with
  | Error e -> Error (Environment.lock_error_to_string e)
  | Ok lock ->
      install_and_view ctx ~span:"environment.install_locked" (List.map snd lock.lk_specs)

(* One timed step on a context: result, ms, and its Vfs and Gc work. *)
let step (ctx : Context.t) f =
  let (r, ms), layers = Harness.measure [ ctx.vfs ] (fun () -> Trace.timed f) in
  (r, ms, layers)

let nodes_of (r : Environment.report) = List.length r.er_report.Installer.pr_outcomes

let run ~lazy_setup_ms ~seed ~seconds ~traced ~perturb =
  let round roots ~traced =
    let fail_setup e = failwith ("env-lifecycle set-up: " ^ e) in
    (* set-up, part 1: the solving context and its environment *)
    let (a, env_a), setup1_ms =
      Trace.timed (fun () ->
          let repo = Gen.synth_repository () in
          let a = Context.create ~repo ~cache_root () in
          match make_env a roots with
          | Ok env -> (a, env)
          | Error e -> fail_setup e)
    in
    let step1, install_ms, layers1 =
      step a (fun () ->
          if traced then Trace.span "env.install" (fun () -> traced_install a env_a)
          else Result.map nodes_of (Environment.install ~jobs a env_a))
    in
    (* set-up, part 2: fill the binary cache, then open an empty store on
       a second filesystem and copy the cache and the lockfile over *)
    let (b, env_b, push_ms), setup2_ms =
      Trace.timed (fun () ->
          let pushed, push_ms = Trace.timed (fun () -> Commands.buildcache_push a) in
          (match pushed with Ok _ -> () | Error e -> fail_setup e);
          let b = Context.create ~repo:a.repo ~cache_root () in
          let entries =
            List.filter_map
              (fun (p, k) -> if k = Vfs.File then Some p else None)
              (Vfs.walk a.vfs cache_root)
          in
          copy ~src:a.vfs ~dst:b.vfs (entries @ [ Environment.lock_path "bench" ]);
          match make_env b roots with
          | Error e -> fail_setup e
          | Ok env -> (b, env, push_ms))
    in
    let step3, replay_ms, layers3 =
      step b (fun () ->
          if traced then Trace.span "env.replay" (fun () -> traced_replay b env_b)
          else
            Result.map nodes_of (Environment.install_locked ~jobs b env_b)
            |> Result.map_error Environment.locked_error_to_string)
    in
    (* the replayed store, index and view must equal the solved ones;
       [perturb] corrupts each replayed side *)
    let mismatches =
      List.filter_map
        (fun (what, replayed, solved) ->
          if (if perturb then replayed ^ " " else replayed) = solved then None else Some what)
        [ ("store", snapshot b.vfs install_root, snapshot a.vfs install_root);
          ("index", index b, index a);
          ("view", snapshot b.vfs view_root, snapshot a.vfs view_root) ]
    in
    List.iter (fun w -> prerr_endline ("check failed: replayed " ^ w ^ " differs")) mismatches;
    let failed =
      (if Result.is_ok step1 then 0 else 1) + if Result.is_ok step3 && mismatches = [] then 0 else 1
    in
    let work = Result.value step1 ~default:0 + Result.value step3 ~default:0 in
    let layers =
      if not traced then []
      else
        let spans = Trace.recorded_self_times () in
        let sa = Installer.stats a.installer and sb = Installer.stats b.installer in
        let index_bytes =
          float (Installer.index_bytes_written a.installer + Installer.index_bytes_written b.installer)
        in
        Harness.add_layers layers1 layers3
        @ [ ("multiroot.solve_ms", Harness.busy spans "multiroot");
            ("installer.busy_ms", Harness.busy spans "installer");
            ("installer.index_bytes", index_bytes);
            ("installer.index_bytes_per_node", index_bytes /. float (max 1 work));
            ("installer.built", float (sa.st_built + sb.st_built));
            ("installer.reused", float (sa.st_reused + sb.st_reused));
            ("installer.cache_hits", float (sa.st_cache_hits + sb.st_cache_hits));
            ("installer.cache_misses", float (sa.st_cache_misses + sb.st_cache_misses));
            ("env.install_ms", install_ms);
            ("env.replay_ms", replay_ms);
            ("buildcache.push_ms", push_ms);
            ( "buildcache.hit_ratio",
              float sb.st_cache_hits /. float (max 1 (sb.st_cache_hits + sb.st_cache_misses)) );
            ("environment.read_lock_ms", Harness.busy spans "environment.read_lock");
            ("environment.install_locked_ms", Harness.busy spans "environment.install_locked");
            ("environment.sync_view_ms", Harness.busy spans "environment.sync_view") ]
    in
    { Harness.setup_ms = setup1_ms +. setup2_ms; timed_ms = install_ms +. replay_ms;
      latencies = [ install_ms; replay_ms ]; work; attempted = 2; failed; layers }
  in
  Harness.run ~seconds ~traced ~lazy_setup_ms ~inputs:(fun index -> Gen.env_roots ~seed ~index) ~round
