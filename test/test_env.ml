(* Environments: unified solve, fingerprinted lockfiles, parallel
   install, env-scoped views, crash safety. *)

module Environment = Ospack.Environment
module Context = Ospack.Context
module Ast = Ospack_spec.Ast
module Concrete = Ospack_spec.Concrete
module Database = Ospack_store.Database
module Installer = Ospack_store.Installer
module Vfs = Ospack_vfs.Vfs
module Json = Ospack_json.Json
module Sha256 = Ospack_hash.Sha256
module Package = Ospack_package.Package
module Repository = Ospack_package.Repository
module Config = Ospack_config.Config
module Universe = Ospack_repo.Universe

let ok = function
  | Ok x -> x
  | Error e -> Alcotest.failf "unexpected error: %s" e

let ok_lock = function
  | Ok x -> x
  | Error e ->
      Alcotest.failf "unexpected lock error: %s"
        (Environment.lock_error_to_string e)

(* every file and symlink under a root, with content/target — the
   byte-identity probe; the ccache is excluded because only a solving
   context writes one *)
let snapshot ctx root =
  Vfs.walk ctx.Context.vfs root
  |> List.filter_map (fun (path, kind) ->
         if path = "/ospack/opt/.spack-db/ccache.json" then None
         else
           match kind with
           | Vfs.File ->
               Some (path ^ " F " ^ Result.get_ok (Vfs.read_file ctx.Context.vfs path))
           | Vfs.Symlink ->
               Some (path ^ " L " ^ Result.get_ok (Vfs.readlink ctx.Context.vfs path))
           | Vfs.Dir -> Some (path ^ " D"))

let db_json ctx =
  Json.to_string ~indent:2
    (Database.to_json (Installer.database ctx.Context.installer))

let copy_lock src dst name =
  let content =
    Result.get_ok (Vfs.read_file src.Context.vfs (Environment.lock_path name))
  in
  ok
    (Result.map_error Vfs.error_to_string
       (Vfs.write_file dst.Context.vfs (Environment.lock_path name) content))

(* ------------------------------------------------------------------ *)

let manifest_lifecycle () =
  let ctx = Context.create () in
  Alcotest.(check (list string)) "no envs yet" [] (Environment.list_envs ctx);
  let env = ok (Environment.create ctx ~name:"tools" ()) in
  Alcotest.(check (list string)) "listed" [ "tools" ] (Environment.list_envs ctx);
  Alcotest.(check bool) "duplicate name rejected" true
    (Result.is_error (Environment.create ctx ~name:"tools" ()));
  Alcotest.(check bool) "bad name rejected" true
    (Result.is_error (Environment.create ctx ~name:"to ols" ()));
  let env = ok (Environment.add ctx env "mpileaks ^mvapich2@1.9") in
  let env = ok (Environment.add ctx env "gsl") in
  Alcotest.(check bool) "duplicate root rejected" true
    (Result.is_error (Environment.add ctx env "gsl"));
  Alcotest.(check bool) "bad spec rejected" true
    (Result.is_error (Environment.add ctx env "a b"));
  (* persistence: reload sees the same manifest *)
  let reloaded = ok (Environment.load ctx ~name:"tools") in
  Alcotest.(check (list string)) "roots persisted (canonical)"
    [ "mpileaks ^mvapich2@1.9"; "gsl" ]
    reloaded.Environment.env_roots;
  let env = ok (Environment.remove_root ctx env "gsl") in
  Alcotest.(check (list string)) "root removed"
    [ "mpileaks ^mvapich2@1.9" ]
    env.Environment.env_roots;
  Alcotest.(check bool) "unknown env load fails" true
    (Result.is_error (Environment.load ctx ~name:"nope"))

let canonical_roots () =
  let ctx = Context.create () in
  let env = ok (Environment.create ctx ~name:"canon" ()) in
  let env = ok (Environment.add ctx env "libelf@0.8.12") in
  (* same root, different spelling: whitespace before the constraint *)
  Alcotest.(check bool) "respelled duplicate rejected" true
    (Result.is_error (Environment.add ctx env "libelf @0.8.12"));
  let reloaded = ok (Environment.load ctx ~name:"canon") in
  Alcotest.(check (list string)) "stored canonically" [ "libelf@0.8.12" ]
    reloaded.Environment.env_roots;
  (* removal accepts any spelling of the same root *)
  let env = ok (Environment.remove_root ctx env "libelf @0.8.12") in
  Alcotest.(check (list string)) "removed via respelling" []
    env.Environment.env_roots

let unified_solve_shares_subdags () =
  let ctx = Context.create () in
  let env = ok (Environment.create ctx ~name:"uni" ()) in
  let env = ok (Environment.add ctx env "dyninst") in
  let env = ok (Environment.add ctx env "libdwarf") in
  let pairs = ok (Environment.concretize_roots ctx env) in
  (match pairs with
  | [ ("dyninst", dyn); ("libdwarf", dw) ] ->
      (* one pass over a shared constraint context: the libdwarf sub-DAG
         inside dyninst IS the libdwarf root's DAG, hash for hash *)
      Alcotest.(check string) "sub-DAG shared by hash"
        (Concrete.root_hash dw)
        (Concrete.dag_hash dyn "libdwarf")
  | _ -> Alcotest.fail "expected two roots in order");
  let report = ok (Environment.install ~jobs:2 ctx env) in
  let hashes =
    List.map
      (fun (o : Installer.outcome) -> o.Installer.o_record.Database.r_hash)
      report.Environment.er_report.Installer.pr_outcomes
  in
  Alcotest.(check int) "merged DAG installs each node once"
    (List.length (List.sort_uniq String.compare hashes))
    (List.length hashes);
  (match Environment.status ctx env with
  | [ (_, true); (_, true) ] -> ()
  | _ -> Alcotest.fail "both roots installed")

let conflicting_roots_error () =
  let ctx = Context.create () in
  let env = ok (Environment.create ctx ~name:"bad" ()) in
  let env = ok (Environment.add ctx env "libdwarf ^libelf@0.8.12") in
  let env = ok (Environment.add ctx env "dyninst ^libelf@0.8.13") in
  (match Environment.install ctx env with
  | Ok _ -> Alcotest.fail "conflicting roots must not solve"
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "conflict names the package (%s)" e)
        true
        (Astring.String.is_infix ~affix:"libelf" e));
  Alcotest.(check bool) "no lockfile written on conflict" false
    (Vfs.exists ctx.Context.vfs (Environment.lock_path "bad"));
  (* two roots forcing different providers of one virtual cannot unify *)
  let env2 = ok (Environment.create ctx ~name:"twompi" ()) in
  let env2 = ok (Environment.add ctx env2 "mpileaks ^mvapich2@1.9") in
  let env2 = ok (Environment.add ctx env2 "mpileaks@2.3 ^openmpi") in
  Alcotest.(check bool) "two MPI providers for one DAG rejected" true
    (Result.is_error (Environment.install ctx env2))

let locked_replay_byte_identical () =
  (* context A: fresh unified solve, serial install; context B: lockfile
     replay at -j4 — store, index, and view must be byte-identical *)
  let a = Context.create () in
  let env_a = ok (Environment.create a ~name:"prod" ~view:"/opt/prod" ()) in
  let env_a = ok (Environment.add a env_a "mpileaks ^mvapich2@1.9") in
  let env_a = ok (Environment.add a env_a "libdwarf") in
  let report_a = ok (Environment.install a env_a) in
  Alcotest.(check bool) "view linked" true (report_a.Environment.er_linked > 0);
  let b = Context.create () in
  let env_b = ok (Environment.create b ~name:"prod" ~view:"/opt/prod" ()) in
  let env_b = ok (Environment.add b env_b "mpileaks ^mvapich2@1.9") in
  let env_b = ok (Environment.add b env_b "libdwarf") in
  copy_lock a b "prod";
  let report_b =
    match Environment.install_locked ~jobs:4 b env_b with
    | Ok r -> r
    | Error e ->
        Alcotest.failf "locked replay failed: %s"
          (Environment.locked_error_to_string e)
  in
  Alcotest.(check (list string)) "store and index byte-identical"
    (snapshot a "/ospack/opt") (snapshot b "/ospack/opt");
  Alcotest.(check (list string)) "view byte-identical"
    (snapshot a "/opt/prod") (snapshot b "/opt/prod");
  Alcotest.(check string) "database json byte-identical" (db_json a) (db_json b);
  Alcotest.(check int) "same link count" report_a.Environment.er_linked
    report_b.Environment.er_linked;
  (* install over a valid lock re-solves and asserts agreement *)
  let report_a2 = ok (Environment.install ~jobs:2 a env_a) in
  List.iter2
    (fun (_, c1) (_, c2) ->
      Alcotest.(check string) "re-install agrees with lock"
        (Concrete.root_hash c1) (Concrete.root_hash c2))
    report_a.Environment.er_roots report_a2.Environment.er_roots

let locked_replay_survives_drift () =
  let ctx = Context.create () in
  let env = ok (Environment.create ctx ~name:"locked" ()) in
  let env = ok (Environment.add ctx env "libdwarf") in
  let report = ok (Environment.install ctx env) in
  let original_hash =
    Concrete.root_hash (snd (List.hd report.Environment.er_roots))
  in
  (* wipe the store, keeping the filesystem (and hence the lockfile) *)
  ignore (ok (Ospack.uninstall ctx "libdwarf"));
  ignore (ok (Ospack.gc ctx));
  Alcotest.(check int) "store drained" 0
    (Database.count (Installer.database ctx.Context.installer));
  let replay =
    match Environment.install_locked ctx env with
    | Ok r -> r
    | Error e ->
        Alcotest.failf "replay: %s" (Environment.locked_error_to_string e)
  in
  Alcotest.(check string) "locked hash reproduced" original_hash
    (Concrete.root_hash (snd (List.hd replay.Environment.er_roots)));
  (* an environment without a lockfile refuses locked replay, typed *)
  let bare = ok (Environment.create ctx ~name:"bare" ()) in
  match Environment.install_locked ctx bare with
  | Error (Environment.Locked_lock Environment.Lock_missing) -> ()
  | Error e ->
      Alcotest.failf "expected Lock_missing, got %s"
        (Environment.locked_error_to_string e)
  | Ok _ -> Alcotest.fail "no lockfile must not replay"

(* ------------------------------------------------------------------ *)
(* Lockfile lifecycle                                                 *)

let lock_roundtrip () =
  let ctx = Context.create () in
  let env = ok (Environment.create ctx ~name:"rt" ()) in
  let env = ok (Environment.add ctx env "libdwarf") in
  let pairs = ok (Environment.concretize_roots ctx env) in
  ok (Environment.write_lock ctx env pairs);
  let lock = ok_lock (Environment.read_lock ctx env) in
  Alcotest.(check (list string)) "roots round-trip" [ "libdwarf" ]
    lock.Environment.lk_roots;
  List.iter2
    (fun (r1, c1) (r2, c2) ->
      Alcotest.(check string) "root" r1 r2;
      Alcotest.(check bool) "concrete round-trips" true (Concrete.equal c1 c2))
    pairs lock.Environment.lk_specs

let lock_migration_v1 () =
  let ctx = Context.create () in
  let env = ok (Environment.create ctx ~name:"old" ()) in
  let env = ok (Environment.add ctx env "libdwarf") in
  let c = ok (Ospack.spec ctx "libdwarf") in
  let path = Environment.lock_path "old" in
  (* a legacy format-1 lockfile: bare spec list, no checksum or
     fingerprint *)
  let v1 =
    Json.to_string ~indent:2
      (Json.Obj
         [
           ("format", Json.Int 1);
           ("specs", Json.List [ Concrete.to_json c ]);
         ])
    ^ "\n"
  in
  ok
    (Result.map_error Vfs.error_to_string
       (Vfs.write_file ctx.Context.vfs path v1));
  (* it is refused typed, never adopted or rewritten in place *)
  (match Environment.read_lock ctx env with
  | Error (Environment.Lock_corrupt why) ->
      Alcotest.(check string) "format 1 refused"
        "unsupported lockfile format 1" why
  | Error e ->
      Alcotest.failf "format 1: expected Lock_corrupt, got %s"
        (Environment.lock_error_to_string e)
  | Ok _ -> Alcotest.fail "format-1 lock adopted");
  Alcotest.(check string) "format-1 file left as written" v1
    (Result.get_ok (Vfs.read_file ctx.Context.vfs path));
  (match Environment.install_locked ctx env with
  | Error (Environment.Locked_lock (Environment.Lock_corrupt _)) -> ()
  | Error e ->
      Alcotest.failf "format-1 replay: expected corrupt, got %s"
        (Environment.locked_error_to_string e)
  | Ok _ -> Alcotest.fail "format-1 lock replayed");
  Alcotest.(check int) "no install from a format-1 lock" 0
    (Database.count (Installer.database ctx.Context.installer));
  (* the migration path is a re-solve: env install writes format 2,
     fingerprinted and checksummed, with the same concrete spec *)
  let _ = ok (Environment.install ctx env) in
  let lock = ok_lock (Environment.read_lock ctx env) in
  Alcotest.(check bool) "re-solved spec intact" true
    (Concrete.equal c (snd (List.hd lock.Environment.lk_specs)));
  let j =
    Result.get_ok (Json.of_string (Result.get_ok (Vfs.read_file ctx.Context.vfs path)))
  in
  Alcotest.(check (option int)) "rewritten as format 2"
    (Some Environment.lock_format)
    (Option.bind (Json.member "format" j) Json.get_int);
  Alcotest.(check bool) "rewritten file carries a checksum" true
    (Json.member "checksum" j <> None);
  match Environment.install_locked ctx env with
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "re-solved lock replay: %s"
        (Environment.locked_error_to_string e)

(* rebuild a tampered lock's checksum so only the targeted inconsistency
   shows — tampering without re-signing is caught by the checksum *)
let resign fields =
  let payload = List.filter (fun (k, _) -> k <> "checksum") fields in
  let checksum =
    Sha256.hex_digest (Json.to_string ~indent:2 (Json.Obj payload))
  in
  match payload with
  | format :: rest ->
      Json.Obj (format :: ("checksum", Json.String checksum) :: rest)
  | [] -> assert false

let with_lock_json ctx name f =
  let path = Environment.lock_path name in
  let content = Result.get_ok (Vfs.read_file ctx.Context.vfs path) in
  let fields =
    match Result.get_ok (Json.of_string content) with
    | Json.Obj fields -> fields
    | _ -> Alcotest.fail "lock is not an object"
  in
  let j = f fields in
  ok
    (Result.map_error Vfs.error_to_string
       (Vfs.write_file ctx.Context.vfs path
          (Json.to_string ~indent:2 j ^ "\n")))

let expect_corrupt what = function
  | Error (Environment.Lock_corrupt _) -> ()
  | Error e ->
      Alcotest.failf "%s: expected Lock_corrupt, got %s" what
        (Environment.lock_error_to_string e)
  | Ok _ -> Alcotest.failf "%s: tampered lock accepted" what

let lock_tampering_rejected () =
  let ctx = Context.create () in
  let env = ok (Environment.create ctx ~name:"sig" ()) in
  let env = ok (Environment.add ctx env "libdwarf") in
  let _ = ok (Environment.install ctx env) in
  let path = Environment.lock_path "sig" in
  let pristine = Result.get_ok (Vfs.read_file ctx.Context.vfs path) in
  (* 1. any unsigned edit fails the checksum *)
  with_lock_json ctx "sig" (fun fields ->
      Json.Obj
        (List.map
           (fun (k, v) ->
             if k = "roots" then (k, Json.List [ Json.String "libelf" ])
             else (k, v))
           fields));
  expect_corrupt "unsigned edit" (Environment.read_lock ctx env);
  (* 2. a re-signed edit with an inconsistent hash is still corrupt *)
  ignore (Vfs.write_file ctx.Context.vfs path pristine);
  with_lock_json ctx "sig" (fun fields ->
      resign
        (List.map
           (fun (k, v) ->
             match (k, v) with
             | "specs", Json.List [ Json.Obj spec ] ->
                 ( k,
                   Json.List
                     [
                       Json.Obj
                         (List.map
                            (fun (sk, sv) ->
                              if sk = "hash" then (sk, Json.String "deadbeef")
                              else (sk, sv))
                            spec);
                     ] )
             | _ -> (k, v))
           fields));
  expect_corrupt "hash flip" (Environment.read_lock ctx env);
  (* 3. a concrete DAG missing a dependency node (a "missing dep hash")
     is rejected before any install happens *)
  ignore (Vfs.write_file ctx.Context.vfs path pristine);
  with_lock_json ctx "sig" (fun fields ->
      resign
        (List.map
           (fun (k, v) ->
             match (k, v) with
             | "specs", Json.List [ Json.Obj spec ] ->
                 ( k,
                   Json.List
                     [
                       Json.Obj
                         (List.map
                            (fun (sk, sv) ->
                              match (sk, sv) with
                              | "concrete", cj -> (
                                  match Json.member "nodes" cj with
                                  | Some (Json.List nodes) ->
                                      let keep =
                                        List.filter
                                          (fun n ->
                                            Option.bind (Json.member "name" n)
                                              Json.get_string
                                            <> Some "libelf")
                                          nodes
                                      in
                                      ( sk,
                                        Json.Obj
                                          [
                                            ("format", Json.Int 1);
                                            ( "root",
                                              Json.String "libdwarf" );
                                            ("nodes", Json.List keep);
                                          ] )
                                  | _ -> (sk, sv))
                              | _ -> (sk, sv))
                            spec);
                     ] )
             | _ -> (k, v))
           fields));
  (match Environment.install_locked ctx env with
  | Error (Environment.Locked_lock (Environment.Lock_corrupt _)) -> ()
  | Error e ->
      Alcotest.failf "missing dep: expected corrupt, got %s"
        (Environment.locked_error_to_string e)
  | Ok _ -> Alcotest.fail "missing dep node accepted");
  (* pristine file still replays *)
  ignore (Vfs.write_file ctx.Context.vfs path pristine);
  ignore (ok_lock (Environment.read_lock ctx env))

let stale_fingerprint_resolves () =
  let a = Context.create () in
  let env_a = ok (Environment.create a ~name:"stale" ()) in
  let env_a = ok (Environment.add a env_a "libdwarf") in
  let _ = ok (Environment.install a env_a) in
  (* a context with a different site configuration: base fingerprint
     drifts, the lock is typed stale, never silently replayed *)
  let config =
    Config.layer [ Config.parse_exn "site.name = cluster-b"; Universe.default_config ]
  in
  let b = Context.create ~config () in
  let env_b = ok (Environment.create b ~name:"stale" ()) in
  let env_b = ok (Environment.add b env_b "libdwarf") in
  copy_lock a b "stale";
  (match Environment.read_lock b env_b with
  | Error (Environment.Lock_stale { lock_fp; current_fp; _ }) ->
      Alcotest.(check bool) "fingerprints differ" true (lock_fp <> current_fp)
  | Error e ->
      Alcotest.failf "expected Lock_stale, got %s"
        (Environment.lock_error_to_string e)
  | Ok _ -> Alcotest.fail "stale lock accepted");
  (match Environment.install_locked b env_b with
  | Error (Environment.Locked_lock (Environment.Lock_stale _)) -> ()
  | _ -> Alcotest.fail "stale lock must fail install_locked, typed");
  Alcotest.(check int) "no partial install from a stale lock" 0
    (Database.count (Installer.database b.Context.installer));
  (* env install re-solves at the new fingerprint and rewrites the lock *)
  let _ = ok (Environment.install b env_b) in
  ignore (ok_lock (Environment.read_lock b env_b))

let recipe_drift_is_stale () =
  let a = Context.create () in
  let env_a = ok (Environment.create a ~name:"drift" ()) in
  let env_a = ok (Environment.add a env_a "libdwarf") in
  let _ = ok (Environment.install a env_a) in
  (* same repo name, same config, one edited recipe in the locked
     closure: the base fingerprint matches but the per-spec Merkle
     fingerprint catches the drift *)
  let repo = Universe.repository () in
  let edited =
    Repository.create ~name:(Repository.name repo)
      (List.map
         (fun (p : Package.t) ->
           if p.Package.p_name = "libelf" then
             Package.override p [ Package.version "99.9" ]
           else p)
         (Repository.all_packages repo))
  in
  let b = Context.create ~repo:edited () in
  let env_b = ok (Environment.create b ~name:"drift" ()) in
  let env_b = ok (Environment.add b env_b "libdwarf") in
  copy_lock a b "drift";
  match Environment.read_lock b env_b with
  | Error (Environment.Lock_stale { reason; _ }) ->
      Alcotest.(check bool)
        (Printf.sprintf "reason mentions drift (%s)" reason)
        true
        (Astring.String.is_infix ~affix:"drifted" reason)
  | Error e ->
      Alcotest.failf "expected Lock_stale, got %s"
        (Environment.lock_error_to_string e)
  | Ok _ -> Alcotest.fail "recipe drift accepted"

(* ------------------------------------------------------------------ *)
(* Env-scoped views                                                   *)

let targets ctx root =
  Vfs.walk ctx.Context.vfs root
  |> List.filter_map (fun (path, kind) ->
         match kind with
         | Vfs.Symlink -> Some (Result.get_ok (Vfs.readlink ctx.Context.vfs path))
         | _ -> None)

let disjoint_views_share_store () =
  let ctx = Context.create () in
  let a = ok (Environment.create ctx ~name:"enva" ~view:"/views/a" ()) in
  let a = ok (Environment.add ctx a "libdwarf") in
  let b = ok (Environment.create ctx ~name:"envb" ~view:"/views/b" ()) in
  let b = ok (Environment.add ctx b "gsl") in
  let ra = ok (Environment.install ctx a) in
  let rb = ok (Environment.install ctx b) in
  Alcotest.(check bool) "both views linked" true
    (ra.Environment.er_linked > 0 && rb.Environment.er_linked > 0);
  (* one store holds both closures *)
  let db = Installer.database ctx.Context.installer in
  Alcotest.(check bool) "one shared store" true
    (Database.count db
    >= Concrete.node_count (snd (List.hd ra.Environment.er_roots))
       + Concrete.node_count (snd (List.hd rb.Environment.er_roots)));
  (* each view links exactly its environment's closure — never the whole
     store (the old sync_view bug) *)
  let closure_prefixes report =
    List.concat_map
      (fun (_, c) ->
        List.map (fun (n : Concrete.node) ->
            let h = Concrete.dag_hash c n.Concrete.name in
            match Database.find_by_hash db h with
            | Some r -> r.Database.r_prefix
            | None -> Alcotest.failf "%s/%s not installed" n.Concrete.name h)
          (Concrete.nodes c))
      report.Environment.er_roots
  in
  let in_prefixes prefixes target =
    List.exists
      (fun p -> Astring.String.is_prefix ~affix:(p ^ "/") target)
      prefixes
  in
  let pa = closure_prefixes ra and pb = closure_prefixes rb in
  List.iter
    (fun t ->
      Alcotest.(check bool)
        (Printf.sprintf "a-view target inside a-closure (%s)" t)
        true (in_prefixes pa t);
      Alcotest.(check bool)
        (Printf.sprintf "a-view target outside b-closure (%s)" t)
        false (in_prefixes pb t))
    (targets ctx "/views/a");
  List.iter
    (fun t ->
      Alcotest.(check bool)
        (Printf.sprintf "b-view target inside b-closure (%s)" t)
        true (in_prefixes pb t))
    (targets ctx "/views/b");
  Alcotest.(check bool) "views non-empty" true
    (targets ctx "/views/a" <> [] && targets ctx "/views/b" <> [])

(* ------------------------------------------------------------------ *)
(* Crash safety                                                       *)

let atomic_manifest_and_lock () =
  let ctx = Context.create () in
  let env = ok (Environment.create ctx ~name:"atomic" ()) in
  let env = ok (Environment.add ctx env "libelf") in
  let manifest_before =
    Result.get_ok
      (Vfs.read_file ctx.Context.vfs (Environment.manifest_path "atomic"))
  in
  (* kill the tmp write, then the rename: the previous manifest must
     survive both *)
  List.iter
    (fun barrier ->
      Vfs.set_fault_plan ctx.Context.vfs ~mode:Vfs.Fail_op [ barrier ];
      Alcotest.(check bool) "add fails at the barrier" true
        (Result.is_error (Environment.add ctx env "gsl"));
      Vfs.clear_fault_plan ctx.Context.vfs;
      Alcotest.(check string) "manifest intact" manifest_before
        (Result.get_ok
           (Vfs.read_file ctx.Context.vfs (Environment.manifest_path "atomic"))))
    [ 1; 2 ];
  (* same protocol for the lockfile *)
  let pairs = ok (Environment.concretize_roots ctx env) in
  ok (Environment.write_lock ctx env pairs);
  let lock_before =
    Result.get_ok (Vfs.read_file ctx.Context.vfs (Environment.lock_path "atomic"))
  in
  List.iter
    (fun barrier ->
      Vfs.set_fault_plan ctx.Context.vfs ~mode:Vfs.Fail_op [ barrier ];
      Alcotest.(check bool) "write_lock fails at the barrier" true
        (Result.is_error (Environment.write_lock ctx env pairs));
      Vfs.clear_fault_plan ctx.Context.vfs;
      Alcotest.(check string) "lockfile intact" lock_before
        (Result.get_ok
           (Vfs.read_file ctx.Context.vfs (Environment.lock_path "atomic"))))
    [ 1; 2 ]

let torture_sweep () =
  match Environment.torture ~name:"t" ~view:"/views/t" ~roots:[ "libelf" ] () with
  | Error e -> Alcotest.failf "env torture: %s" e
  | Ok r ->
      Alcotest.(check bool) "swept some barriers" true (r.Environment.et_barriers > 0);
      Alcotest.(check int) "killed at every barrier" r.Environment.et_barriers
        r.Environment.et_kills;
      Alcotest.(check bool) "saw intact manifests mid-lifecycle" true
        (r.Environment.et_manifest_intact > 0)

let () =
  Alcotest.run "env"
    [
      ( "environment",
        [
          Alcotest.test_case "manifest lifecycle" `Quick manifest_lifecycle;
          Alcotest.test_case "roots are canonicalized" `Quick canonical_roots;
          Alcotest.test_case "unified solve shares sub-DAGs" `Quick
            unified_solve_shares_subdags;
          Alcotest.test_case "conflicting roots fail typed" `Quick
            conflicting_roots_error;
          Alcotest.test_case "locked replay is byte-identical" `Quick
            locked_replay_byte_identical;
          Alcotest.test_case "locked replay survives drift" `Quick
            locked_replay_survives_drift;
        ] );
      ( "lockfile",
        [
          Alcotest.test_case "format-2 round-trip" `Quick lock_roundtrip;
          Alcotest.test_case "format-1 migration" `Quick lock_migration_v1;
          Alcotest.test_case "tampering rejected typed" `Quick
            lock_tampering_rejected;
          Alcotest.test_case "stale fingerprint forces re-solve" `Quick
            stale_fingerprint_resolves;
          Alcotest.test_case "recipe drift is stale" `Quick
            recipe_drift_is_stale;
        ] );
      ( "views",
        [
          Alcotest.test_case "two envs, one store, disjoint views" `Quick
            disjoint_views_share_store;
        ] );
      ( "crash",
        [
          Alcotest.test_case "manifest and lock write-then-rename" `Quick
            atomic_manifest_and_lock;
          Alcotest.test_case "torture sweep converges" `Quick torture_sweep;
        ] );
    ]
