(* The install store: database queries, bottom-up installation with
   sub-DAG reuse (paper Fig. 9), uninstall safety, and provenance
   (§3.4.3). *)

open Ospack_package.Package
module Repository = Ospack_package.Repository
module Compilers = Ospack_config.Compilers
module Concretizer = Ospack_concretize.Concretizer
module Concrete = Ospack_spec.Concrete
module Parser = Ospack_spec.Parser
module Database = Ospack_store.Database
module Installer = Ospack_store.Installer
module Provenance = Ospack_store.Provenance
module Vfs = Ospack_vfs.Vfs
module Json = Ospack_json.Json

let repo =
  Repository.create
    [
      make_pkg "mpileaks"
        [ version "1.0"; depends_on "mpi"; depends_on "callpath" ];
      make_pkg "callpath" [ version "1.0"; depends_on "dyninst" ];
      make_pkg "dyninst" [ version "8.2"; depends_on "libelf" ];
      make_pkg "libelf" [ version "0.8.13" ];
      make_pkg "mpich" [ version "3.0.4"; provides "mpi@:3" ];
      make_pkg "openmpi" [ version "1.8.2"; provides "mpi@:2.2" ];
    ]

let compilers = Compilers.create [ Compilers.toolchain "gcc" "4.9.2" ]
let cctx = Concretizer.make_ctx ~compilers repo

let concretize spec =
  match Concretizer.concretize_string cctx spec with
  | Ok c -> c
  | Error e -> Alcotest.failf "concretize %s: %s" spec e

let fresh () =
  let vfs = Vfs.create () in
  (vfs, Installer.create ~vfs ~repo ~compilers ())

let install inst spec =
  match Installer.install inst (concretize spec) with
  | Ok outcomes -> outcomes
  | Error e -> Alcotest.failf "install %s: %s" spec e

(* --- database --- *)

let database_queries () =
  let _, inst = fresh () in
  ignore (install inst "mpileaks ^mpich");
  let db = Installer.database inst in
  Alcotest.(check int) "five records" 5 (Database.count db);
  Alcotest.(check int) "one mpileaks" 1
    (List.length (Database.find_by_name db "mpileaks"));
  (* find_satisfying with abstract queries *)
  let q s = Database.find_satisfying db (Parser.parse_exn s) in
  Alcotest.(check int) "query by name" 1 (List.length (q "mpileaks"));
  Alcotest.(check int) "query by dep" 1 (List.length (q "mpileaks ^libelf@0.8.13"));
  Alcotest.(check int) "query by virtual" 1 (List.length (q "mpileaks ^mpi"));
  Alcotest.(check int) "provider satisfies virtual query" 1
    (List.length (q "mpi"));
  Alcotest.(check int) "mismatched version" 0 (List.length (q "mpileaks@2:"));
  (* explicit flag: only the root is explicit *)
  let explicit = List.filter (fun r -> r.Database.r_explicit) (Database.all db) in
  Alcotest.(check (list string)) "explicit root only" [ "mpileaks" ]
    (List.map (fun r -> Concrete.root r.Database.r_spec) explicit)

let dependents_tracking () =
  let _, inst = fresh () in
  ignore (install inst "mpileaks ^mpich");
  let db = Installer.database inst in
  let hash_of name =
    match Database.find_by_name db name with
    | [ r ] -> r.Database.r_hash
    | _ -> Alcotest.failf "expected one %s" name
  in
  let deps_of_libelf = Database.dependents_of db (hash_of "libelf") in
  Alcotest.(check (slist string compare)) "libelf dependents"
    [ "callpath"; "dyninst"; "mpileaks" ]
    (List.map (fun r -> Concrete.root r.Database.r_spec) deps_of_libelf);
  Alcotest.(check (list string)) "root has no dependents" []
    (List.map
       (fun r -> Concrete.root r.Database.r_spec)
       (Database.dependents_of db (hash_of "mpileaks")));
  (* removal refuses while dependents exist *)
  Alcotest.(check bool) "remove libelf refused" true
    (Result.is_error (Database.remove db (hash_of "libelf")));
  Alcotest.(check bool) "remove root ok" true
    (Result.is_ok (Database.remove db (hash_of "mpileaks")))

(* [dependents_of] walks a reverse-dependency table and [collectable]
   simulates gc over it; both must agree with the brute-force scans they
   replaced (every record's DAG searched for the hash; gc as "remove the
   first implicit record nothing depends on, repeat") on a seeded store
   with implicit records spread through it. *)
let brute_dependents db hash =
  Database.all db
  |> List.filter (fun r ->
         r.Database.r_hash <> hash
         && List.exists
              (fun n ->
                n.Concrete.name <> Concrete.root r.Database.r_spec
                && Concrete.dag_hash r.Database.r_spec n.Concrete.name = hash)
              (Concrete.nodes r.Database.r_spec))

let dependents_oracle () =
  let rng = Random.State.make [| 16 |] in
  let n = 40 in
  let pkg i = Printf.sprintf "q%02d" i in
  let gen_repo =
    Repository.create
      (List.init n (fun i ->
           let deps =
             if i = 0 then []
             else
               List.sort_uniq compare
                 (List.init (Random.State.int rng 4) (fun _ ->
                      Random.State.int rng i))
           in
           make_pkg (pkg i)
             ([ version "1.0"; version "2.0" ]
             @ List.map (fun d -> depends_on (pkg d)) deps)))
  in
  let gen_cctx = Concretizer.make_ctx ~compilers gen_repo in
  let inst = Installer.create ~vfs:(Vfs.create ()) ~repo:gen_repo ~compilers () in
  for _ = 1 to 30 do
    let spec =
      Printf.sprintf "%s@%d.0" (pkg (Random.State.int rng n)) (1 + Random.State.int rng 2)
    in
    match Concretizer.concretize_string gen_cctx spec with
    | Ok c -> (
        match Installer.install inst c with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "install %s: %s" spec e)
    | Error e -> Alcotest.failf "concretize %s: %s" spec e
  done;
  let names records =
    List.map (fun r -> Concrete.root r.Database.r_spec ^ "/" ^ r.Database.r_hash) records
  in
  (* the same records with every third explicit root made implicit *)
  let copy () =
    let db = Database.create () in
    List.iteri
      (fun i r ->
        Database.add db
          { r with Database.r_explicit = r.Database.r_explicit && i mod 3 <> 0 })
      (Database.all (Installer.database inst));
    db
  in
  let db = copy () in
  Alcotest.(check bool) "a store worth checking" true (Database.count db > 30);
  List.iter
    (fun r ->
      let h = r.Database.r_hash in
      Alcotest.(check (list string)) ("dependents of " ^ h)
        (names (brute_dependents db h))
        (names (Database.dependents_of db h)))
    (Database.all db);
  let brute_gc = copy () in
  let rec collect acc =
    match
      List.find_opt
        (fun r ->
          (not r.Database.r_explicit)
          && brute_dependents brute_gc r.Database.r_hash = [])
        (Database.all brute_gc)
    with
    | None -> List.rev acc
    | Some r -> (
        match Database.remove brute_gc r.Database.r_hash with
        | Ok r -> collect (r :: acc)
        | Error e -> Alcotest.failf "remove: %s" e)
  in
  let expected = collect [] in
  Alcotest.(check bool) "gc has work" true (List.length expected > 5);
  Alcotest.(check (list string)) "gc order" (names expected)
    (names (Database.collectable db));
  (* removing in that order empties the same set: every removal succeeds *)
  List.iter
    (fun r ->
      match Database.remove db r.Database.r_hash with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "collectable order: %s" e)
    (Database.collectable db);
  Alcotest.(check (list string)) "same survivors" (names (Database.all brute_gc))
    (names (Database.all db))

(* --- installer --- *)

let bottom_up_install () =
  let vfs, inst = fresh () in
  let outcomes = install inst "mpileaks ^mpich" in
  Alcotest.(check int) "five builds" 5 (List.length outcomes);
  Alcotest.(check bool) "nothing reused on first install" true
    (List.for_all (fun o -> not o.Installer.o_reused) outcomes);
  (* dependencies install before dependents *)
  let order =
    List.map
      (fun o -> Concrete.root o.Installer.o_record.Database.r_spec)
      outcomes
  in
  let pos x =
    let rec go i = function
      | [] -> -1
      | y :: r -> if x = y then i else go (i + 1) r
    in
    go 0 order
  in
  Alcotest.(check bool) "libelf before dyninst" true (pos "libelf" < pos "dyninst");
  Alcotest.(check bool) "root last" true (pos "mpileaks" = 4);
  (* prefixes exist with provenance and artifacts *)
  List.iter
    (fun o ->
      let prefix = o.Installer.o_record.Database.r_prefix in
      Alcotest.(check bool) (prefix ^ " exists") true (Vfs.is_dir vfs prefix);
      Alcotest.(check bool) (prefix ^ " has spec file") true
        (Provenance.read_spec vfs ~prefix <> None))
    outcomes

(* A reused node wrote no pending marker, so it removes none: installing
   an already installed DAG again, serial or -j, writes and unlinks
   nothing. *)
let reuse_touches_nothing () =
  let vfs, inst = fresh () in
  let c = concretize "mpileaks ^mpich" in
  ignore (install inst "mpileaks ^mpich");
  Vfs.reset_counters vfs;
  ignore (install inst "mpileaks ^mpich");
  (match Installer.install_parallel inst ~jobs:2 [ c ] with
  | Ok r -> Alcotest.(check int) "no failures" 0 (List.length r.Installer.pr_failures)
  | Error e -> Alcotest.failf "install -j2: %s" e);
  let n = Vfs.counters vfs in
  Alcotest.(check (pair int int)) "writes, unlinks" (0, 0)
    (n.Vfs.write, n.Vfs.unlink)

(* Fig. 9: installing with a second MPI reuses the dyninst sub-DAG *)
let subdag_reuse () =
  let _, inst = fresh () in
  ignore (install inst "mpileaks ^mpich");
  let second = install inst "mpileaks ^openmpi" in
  let reused, built =
    List.partition (fun o -> o.Installer.o_reused) second
  in
  let names l =
    List.map (fun o -> Concrete.root o.Installer.o_record.Database.r_spec) l
    |> List.sort compare
  in
  Alcotest.(check (list string)) "dyninst chain reused"
    [ "callpath"; "dyninst"; "libelf" ]
    (names reused);
  Alcotest.(check (list string)) "only MPI-dependent parts rebuilt"
    [ "mpileaks"; "openmpi" ]
    (names built);
  Alcotest.(check int) "7 records total, not 10" 7
    (Database.count (Installer.database inst));
  (* third install of the same thing: everything reused *)
  let third = install inst "mpileaks ^openmpi" in
  Alcotest.(check bool) "idempotent" true
    (List.for_all (fun o -> o.Installer.o_reused) third)

let uninstall_safety () =
  let vfs, inst = fresh () in
  ignore (install inst "mpileaks ^mpich");
  let db = Installer.database inst in
  let hash_of name =
    match Database.find_by_name db name with
    | [ r ] -> r.Database.r_hash
    | _ -> Alcotest.failf "expected one %s" name
  in
  (match Installer.uninstall inst ~hash:(hash_of "libelf") with
  | Ok _ -> Alcotest.fail "uninstalling a dependency must fail"
  | Error msg ->
      Alcotest.(check bool) "error names a dependent" true
        (Astring.String.is_infix ~affix:"dyninst" msg));
  let root_hash = hash_of "mpileaks" in
  let root_prefix =
    (Option.get (Database.find_by_hash db root_hash)).Database.r_prefix
  in
  (match Installer.uninstall inst ~hash:root_hash with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "root uninstall failed: %s" e);
  Alcotest.(check bool) "prefix removed" false (Vfs.exists vfs root_prefix);
  Alcotest.(check int) "record gone" 4 (Database.count db)

let provenance_content () =
  let vfs, inst = fresh () in
  ignore (install inst "mpileaks ^mpich");
  let db = Installer.database inst in
  let r = List.hd (Database.find_by_name db "mpileaks") in
  let prefix = r.Database.r_prefix in
  (match Provenance.read_spec vfs ~prefix with
  | Some line ->
      (* the stored spec re-parses and pins the same configuration *)
      let ast = Parser.parse_exn line in
      Alcotest.(check bool) "stored spec satisfied by the install" true
        (Concrete.satisfies r.Database.r_spec ast)
  | None -> Alcotest.fail "spec file missing");
  (match Provenance.read_log vfs ~prefix with
  | Some lines -> Alcotest.(check bool) "log nonempty" true (lines <> [])
  | None -> Alcotest.fail "build log missing");
  match Provenance.read_package_source vfs ~prefix with
  | Some src -> Alcotest.(check string) "package source" "builtin:mpileaks" src
  | None -> Alcotest.fail "package source missing"

let spec_json_survives_drift () =
  (* §3.4.3: the structured provenance restores the exact DAG even if
     concretization preferences have changed since the install *)
  let vfs, inst = fresh () in
  ignore (install inst "mpileaks ^mpich");
  let db = Installer.database inst in
  let r = List.hd (Database.find_by_name db "mpileaks") in
  let stored =
    match Provenance.read_spec_json vfs ~prefix:r.Database.r_prefix with
    | Ok c -> c
    | Error e -> Alcotest.failf "spec.json: %s" e
  in
  Alcotest.(check bool) "exact DAG restored" true
    (Concrete.equal stored r.Database.r_spec);
  Alcotest.(check string) "same hash" r.Database.r_hash
    (Concrete.root_hash stored);
  (* a second installer with drifted preferences installs the stored spec
     to the very same configuration, bypassing its own concretizer *)
  let drifted =
    Installer.create
      ~config:
        (Ospack_config.Config.of_assoc
           [ ("packages.libelf.version", "0.8.13") ])
      ~vfs:(Vfs.create ()) ~repo ~compilers ()
  in
  match Installer.install drifted stored with
  | Ok outcomes ->
      let root = List.nth outcomes (List.length outcomes - 1) in
      Alcotest.(check string) "identical hash under drifted config"
        r.Database.r_hash root.Installer.o_record.Database.r_hash
  | Error e -> Alcotest.failf "drifted install: %s" e

(* §4.4: external (vendor/site) packages are used instead of building *)
let external_packages () =
  let vfs = Vfs.create () in
  let config =
    Ospack_config.Config.of_assoc
      [
        ( "externals.mpich",
          "mpich@3.0.4 | /opt/vendor/mpich-3.0.4" );
      ]
  in
  let inst = Installer.create ~config ~vfs ~repo ~compilers () in
  let outcomes =
    match Installer.install inst (concretize "mpileaks ^mpich") with
    | Ok o -> o
    | Error e -> Alcotest.failf "install: %s" e
  in
  let mpich_outcome =
    List.find
      (fun o -> Concrete.root o.Installer.o_record.Database.r_spec = "mpich")
      outcomes
  in
  let r = mpich_outcome.Installer.o_record in
  Alcotest.(check bool) "marked external" true r.Database.r_external;
  Alcotest.(check string) "vendor prefix used" "/opt/vendor/mpich-3.0.4"
    r.Database.r_prefix;
  Alcotest.(check bool) "no simulated build time" true
    (r.Database.r_build_seconds = 0.0);
  (* vendor artifacts materialized so dependents resolve *)
  Alcotest.(check bool) "vendor library present" true
    (Vfs.is_file vfs "/opt/vendor/mpich-3.0.4/lib/libmpich.so");
  (* the dependent was built against the vendor prefix: its RPATH points
     there and it runs with an empty environment *)
  let root =
    List.find
      (fun o -> Concrete.root o.Installer.o_record.Database.r_spec = "mpileaks")
      outcomes
  in
  let exe = root.Installer.o_record.Database.r_prefix ^ "/bin/mpileaks" in
  Alcotest.(check bool) "dependent resolves vendor lib" true
    (Ospack_buildsim.Loader.can_run vfs ~path:exe
       ~env:Ospack_buildsim.Env.empty);
  (* uninstalling the external removes the record but not the vendor tree *)
  (match Installer.uninstall inst ~hash:root.Installer.o_record.Database.r_hash with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "uninstall root: %s" e);
  (match Installer.uninstall inst ~hash:r.Database.r_hash with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "uninstall external: %s" e);
  Alcotest.(check bool) "vendor prefix untouched" true
    (Vfs.is_dir vfs "/opt/vendor/mpich-3.0.4")

let external_spec_mismatch () =
  (* the declared external must actually satisfy the concretized node *)
  let vfs = Vfs.create () in
  let config =
    Ospack_config.Config.of_assoc
      [ ("externals.mpich", "mpich@1.4 | /opt/vendor/old-mpich") ]
  in
  let inst = Installer.create ~config ~vfs ~repo ~compilers () in
  match Installer.install inst (concretize "mpileaks ^mpich") with
  | Ok outcomes ->
      let mpich =
        List.find
          (fun o ->
            Concrete.root o.Installer.o_record.Database.r_spec = "mpich")
          outcomes
      in
      Alcotest.(check bool) "built normally (3.0.4 does not match @1.4)" false
        mpich.Installer.o_record.Database.r_external
  | Error e -> Alcotest.failf "install: %s" e

let buildcache_roundtrip () =
  let vfs = Vfs.create () in
  let cache = Ospack_store.Buildcache.create vfs ~root:"/ospack/buildcache" in
  (* build once, push everything to the cache *)
  let builder = Installer.create ~vfs ~repo ~compilers () in
  (match Installer.install builder (concretize "mpileaks ^mpich") with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "build: %s" e);
  (match Installer.push_to_cache builder cache with
  | Ok n -> Alcotest.(check int) "five entries pushed" 5 n
  | Error e -> Alcotest.failf "push: %s" e);
  Alcotest.(check int) "cache lists them" 5
    (List.length (Ospack_store.Buildcache.cached_hashes cache));
  (* a second store on the same filesystem, DIFFERENT install root,
     pulls from the cache instead of building *)
  let puller =
    Installer.create ~install_root:"/elsewhere/opt" ~cache ~vfs ~repo
      ~compilers ()
  in
  (match Installer.install puller (concretize "mpileaks ^mpich") with
  | Ok outcomes ->
      Alcotest.(check bool) "all from cache" true
        (List.for_all (fun o -> o.Installer.o_cached) outcomes);
      Alcotest.(check bool) "no simulated build time" true
        (Installer.total_build_seconds puller = 0.0);
      (* relocation: the pulled binary's RPATHs point into the NEW root
         and the binary runs bare *)
      let root = List.nth outcomes (List.length outcomes - 1) in
      let prefix = root.Installer.o_record.Database.r_prefix in
      Alcotest.(check bool) "prefix under the new root" true
        (Astring.String.is_prefix ~affix:"/elsewhere/opt" prefix);
      (match Vfs.read_file vfs (prefix ^ "/bin/mpileaks") with
      | Ok content ->
          Alcotest.(check bool) "old root scrubbed" false
            (Astring.String.is_infix ~affix:"/ospack/opt" content);
          Alcotest.(check bool) "new root embedded" true
            (Astring.String.is_infix ~affix:"/elsewhere/opt" content)
      | Error _ -> Alcotest.fail "pulled binary missing");
      Alcotest.(check bool) "pulled binary runs with empty env" true
        (Ospack_buildsim.Loader.can_run vfs ~path:(prefix ^ "/bin/mpileaks")
           ~env:Ospack_buildsim.Env.empty)
  | Error e -> Alcotest.failf "pull: %s" e);
  (* relocated pulls still verify clean against their manifests *)
  (let pulled =
     List.hd (Database.find_by_name (Installer.database puller) "mpileaks")
   in
   match
     Provenance.verify_manifest vfs ~prefix:pulled.Database.r_prefix
   with
   | Ok report ->
       Alcotest.(check bool) "relocated prefix verifies clean" true
         (Provenance.report_clean report)
   | Error e -> Alcotest.failf "verify after pull: %s" e);
  (* provenance travels with the archive *)
  let pulled_root =
    List.hd (Database.find_by_name (Installer.database puller) "mpileaks")
  in
  match
    Provenance.read_spec_json vfs ~prefix:pulled_root.Database.r_prefix
  with
  | Ok stored ->
      Alcotest.(check string) "provenance hash matches"
        pulled_root.Database.r_hash (Concrete.root_hash stored)
  | Error e -> Alcotest.failf "provenance after pull: %s" e

(* save must propagate problems instead of silently skipping entries:
   a record pointing at nothing, or at an empty tree, is an error *)
let buildcache_save_errors () =
  let vfs = Vfs.create () in
  let cache = Ospack_store.Buildcache.create vfs ~root:"/cache" in
  let spec = concretize "libelf" in
  let record prefix =
    {
      Database.r_spec = spec;
      r_hash = Concrete.root_hash spec;
      r_prefix = prefix;
      r_explicit = true;
      r_external = false;
      r_build_seconds = 0.0;
    }
  in
  (match
     Ospack_store.Buildcache.save cache ~install_root:"/r1"
       (record "/r1/missing")
   with
  | Ok () -> Alcotest.fail "missing prefix must not archive"
  | Error e ->
      Alcotest.(check bool) "missing prefix named" true
        (Astring.String.is_infix ~affix:"is not a directory"
           (Ospack_store.Buildcache.error_to_string e)));
  (match Vfs.mkdir_p vfs "/r1/empty" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "mkdir: %s" (Vfs.error_to_string e));
  match
    Ospack_store.Buildcache.save cache ~install_root:"/r1" (record "/r1/empty")
  with
  | Ok () -> Alcotest.fail "empty prefix must not archive"
  | Error e ->
      Alcotest.(check bool) "empty prefix refused" true
        (Astring.String.is_infix ~affix:"refusing to archive empty prefix"
           (Ospack_store.Buildcache.error_to_string e))

(* re-extraction must replace a symlink whose (relocated) target changed,
   and empty directories must survive the round trip *)
let buildcache_stale_links_and_dirs () =
  let vfs = Vfs.create () in
  let cache = Ospack_store.Buildcache.create vfs ~root:"/cache" in
  let ok name = function
    | Ok _ -> ()
    | Error e -> Alcotest.failf "%s: %s" name (Vfs.error_to_string e)
  in
  ok "mkdir" (Vfs.mkdir_p vfs "/r1/pkg/bin");
  ok "write" (Vfs.write_file vfs "/r1/pkg/bin/tool" "prefix=/r1/pkg\n");
  ok "link"
    (Vfs.symlink vfs ~target:"/r1/pkg/bin/tool" ~link:"/r1/pkg/current");
  ok "mkdir" (Vfs.mkdir_p vfs "/r1/pkg/share/doc");
  let spec = concretize "libelf" in
  let record =
    {
      Database.r_spec = spec;
      r_hash = Concrete.root_hash spec;
      r_prefix = "/r1/pkg";
      r_explicit = true;
      r_external = false;
      r_build_seconds = 0.0;
    }
  in
  (match Ospack_store.Buildcache.save cache ~install_root:"/r1" record with
  | Ok () -> ()
  | Error e ->
      Alcotest.failf "save: %s" (Ospack_store.Buildcache.error_to_string e));
  let extract root =
    match
      Ospack_store.Buildcache.extract cache ~hash:record.Database.r_hash
        ~install_root:root ~prefix:"/dest/pkg"
    with
    | Ok _ -> ()
    | Error e ->
        Alcotest.failf "extract under %s: %s" root
          (Ospack_store.Buildcache.error_to_string e)
  in
  let link_target () =
    match Vfs.readlink vfs "/dest/pkg/current" with
    | Ok t -> t
    | Error e -> Alcotest.failf "readlink: %s" (Vfs.error_to_string e)
  in
  extract "/r1";
  Alcotest.(check string) "first extract keeps the cached target"
    "/r1/pkg/bin/tool" (link_target ());
  Alcotest.(check bool) "empty directory extracted" true
    (Vfs.is_dir vfs "/dest/pkg/share/doc");
  (* same destination, new install root: the old link is stale now *)
  extract "/r2";
  Alcotest.(check string) "stale link re-created with relocated target"
    "/r2/pkg/bin/tool" (link_target ());
  (match Vfs.read_file vfs "/dest/pkg/bin/tool" with
  | Ok c ->
      Alcotest.(check string) "file contents relocated too" "prefix=/r2/pkg\n" c
  | Error e -> Alcotest.failf "read: %s" (Vfs.error_to_string e));
  (* a non-link squatting on the path is replaced as well *)
  ok "remove" (Vfs.remove vfs ~recursive:true "/dest/pkg/current");
  ok "write" (Vfs.write_file vfs "/dest/pkg/current" "not a link");
  extract "/r2";
  Alcotest.(check string) "squatting file replaced by the link"
    "/r2/pkg/bin/tool" (link_target ())

(* An index shard is trusted only as far as its hashes check out: a
   record whose dependency hash no shard holds, a record whose node does
   not hash to its recorded hash, and a shard of another format each
   fail the load with Store_corrupt naming the shard. *)
let corrupt_shards_refused () =
  let vfs, inst = fresh () in
  ignore (install inst "dyninst");
  let db = Installer.database inst in
  let record name =
    match Database.find_by_name db name with
    | [ r ] -> r
    | _ -> Alcotest.failf "expected one %s" name
  in
  let dyninst = record "dyninst" and libelf = record "libelf" in
  let shard_of r = Installer.shard_path inst (Database.shard_of_hash r.Database.r_hash) in
  let read path = Result.get_ok (Vfs.read_file vfs path) in
  let pristine = List.map (fun r -> (shard_of r, read (shard_of r))) [ dyninst; libelf ] in
  let restore () =
    List.iter (fun (p, c) -> ignore (Vfs.write_file vfs p c)) pristine
  in
  let refused what ~path ~affix =
    let reload = Installer.create ~vfs ~repo ~compilers () in
    match Installer.load_index reload with
    | Ok _ -> Alcotest.failf "%s: index loaded" what
    | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: Store_corrupt at %s (%s)" what path e)
          true
          (Astring.String.is_prefix ~affix:("db index: " ^ path ^ ": ") e
          && Astring.String.is_infix ~affix e)
  in
  let render records =
    Json.to_string ~indent:2
      (Json.Obj [ ("format", Json.Int 3); ("records", Json.List records) ])
    ^ "\n"
  in
  (* 1. dangling: a shard that lost libelf's record (libelf and dyninst
     may share a shard, so keep the others) *)
  let without_libelf =
    List.filter
      (fun r -> r.Database.r_hash <> libelf.Database.r_hash)
      (Database.shard db (Database.shard_of_hash libelf.Database.r_hash))
  in
  ignore (Vfs.write_file vfs (shard_of libelf) (render (List.map Database.record_to_json without_libelf)));
  refused "dangling dependency hash" ~path:(shard_of dyninst)
    ~affix:("no node " ^ libelf.Database.r_hash);
  restore ();
  (* 2. a record whose node was edited no longer hashes to its key *)
  let edited =
    List.map
      (fun r ->
        let j = Database.record_to_json r in
        if r.Database.r_hash <> libelf.Database.r_hash then j
        else
          match j with
          | Json.Obj fields ->
              Json.Obj
                (List.map
                   (fun (k, v) ->
                     match (k, v) with
                     | "node", Json.Obj nf ->
                         ( k,
                           Json.Obj
                             (List.map
                                (fun (nk, nv) ->
                                  if nk = "arch" then (nk, Json.String "elsewhere")
                                  else (nk, nv))
                                nf) )
                     | _ -> (k, v))
                   fields)
          | j -> j)
      (Database.shard db (Database.shard_of_hash libelf.Database.r_hash))
  in
  ignore (Vfs.write_file vfs (shard_of libelf) (render edited));
  refused "wrong hash" ~path:(shard_of libelf) ~affix:"hashes to";
  restore ();
  (* 3. a shard written by an older format *)
  ignore
    (Vfs.write_file vfs (shard_of libelf)
       (Json.to_string (Json.Obj [ ("format", Json.Int 2); ("records", Json.List []) ])));
  refused "format 2 shard" ~path:(shard_of libelf) ~affix:"unsupported shard format 2";
  restore ();
  match Installer.load_index (Installer.create ~vfs ~repo ~compilers ()) with
  | Ok n -> Alcotest.(check int) "pristine shards load" (Database.count db) n
  | Error e -> Alcotest.failf "pristine: %s" e

(* A whole-DAG reader refuses a DAG padded with a node the root does not
   reach: the spec.json of a prefix and the spec of a buildcache entry. *)
let padded_dags_refused () =
  let vfs, inst = fresh () in
  ignore (install inst "dyninst");
  let dyninst = List.hd (Database.find_by_name (Installer.database inst) "dyninst") in
  let spec = dyninst.Database.r_spec in
  let pad j =
    let stray =
      match Json.member "nodes" (Concrete.to_json (concretize "openmpi")) with
      | Some (Json.List [ n ]) -> n
      | _ -> Alcotest.fail "openmpi has one node"
    in
    match j with
    | Json.Obj fields ->
        Json.Obj
          (List.map
             (fun (k, v) ->
               match (k, v) with
               | "nodes", Json.List nodes -> (k, Json.List (nodes @ [ stray ]))
               | _ -> (k, v))
             fields)
    | j -> j
  in
  let prefix = dyninst.Database.r_prefix in
  ignore
    (Vfs.write_file vfs (prefix ^ "/.spack/spec.json")
       (Json.to_string ~indent:2 (pad (Concrete.to_json spec))));
  (match Provenance.read_spec_json vfs ~prefix with
  | Ok _ -> Alcotest.fail "padded spec.json accepted"
  | Error e ->
      Alcotest.(check bool) ("spec.json refused: " ^ e) true
        (Astring.String.is_infix ~affix:"does not reach openmpi" e));
  let cache = Ospack_store.Buildcache.create vfs ~root:"/cache" in
  let hash = dyninst.Database.r_hash in
  let entry =
    Json.Obj
      [
        ("format", Json.Int 1);
        ("install_root", Json.String "/r1");
        ("prefix", Json.String "/r1/pkg");
        ("spec", pad (Concrete.to_json spec));
        ("file_count", Json.Int 0);
        ("files", Json.List []);
      ]
  in
  ignore
    (Vfs.write_file vfs (Ospack_store.Buildcache.entry_path cache hash) (Json.to_string entry));
  match Ospack_store.Buildcache.entry_spec cache ~hash with
  | Ok _ -> Alcotest.fail "padded buildcache entry accepted"
  | Error e ->
      let e = Ospack_store.Buildcache.error_to_string e in
      Alcotest.(check bool) ("buildcache entry refused: " ^ e) true
        (Astring.String.is_infix ~affix:"does not reach openmpi" e)

(* an entry whose file list disagrees with its recorded count is
   truncated and must not extract *)
let buildcache_truncated_rejected () =
  let vfs = Vfs.create () in
  let cache = Ospack_store.Buildcache.create vfs ~root:"/cache" in
  let spec = concretize "libelf" in
  let hash = Concrete.root_hash spec in
  let module Json = Ospack_json.Json in
  let entry =
    Json.Obj
      [
        ("format", Json.Int 1);
        ("install_root", Json.String "/r1");
        ("prefix", Json.String "/r1/pkg");
        ("spec", Concrete.to_json spec);
        ("file_count", Json.Int 3);
        ( "files",
          Json.List
            [
              Json.Obj
                [
                  ("rel", Json.String "bin/tool");
                  ("kind", Json.String "file");
                  ("content", Json.String "x");
                ];
            ] );
      ]
  in
  (match
     Vfs.write_file vfs
       (Ospack_store.Buildcache.entry_path cache hash)
       (Json.to_string entry)
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "write entry: %s" (Vfs.error_to_string e));
  match
    Ospack_store.Buildcache.extract cache ~hash ~install_root:"/r2"
      ~prefix:"/dest/pkg"
  with
  | Ok _ -> Alcotest.fail "truncated entry must not extract"
  | Error e ->
      Alcotest.(check bool) "truncation reported with counts" true
        (Astring.String.is_infix ~affix:"truncated entry"
           (Ospack_store.Buildcache.error_to_string e));
      Alcotest.(check bool) "nothing materialized" false
        (Vfs.is_file vfs "/dest/pkg/bin/tool")

let mirror_fetching () =
  let vfs = Vfs.create () in
  let mirror = Ospack_buildsim.Mirror.create vfs ~root:"/mirror" in
  let n = Ospack_buildsim.Mirror.populate mirror repo in
  Alcotest.(check int) "every declared version mirrored" 6 n;
  (* builds staged from the mirror verify checksums and log the fetch *)
  let inst = Installer.create ~mirror ~vfs ~repo ~compilers () in
  (match Installer.install inst (concretize "libelf") with
  | Ok outcomes ->
      let r = (List.hd outcomes).Installer.o_record in
      (match Provenance.read_log vfs ~prefix:r.Database.r_prefix with
      | Some log ->
          Alcotest.(check bool) "fetch logged with verification" true
            (List.exists
               (fun l -> Astring.String.is_infix ~affix:"md5 verified" l)
               log)
      | None -> Alcotest.fail "no build log")
  | Error e -> Alcotest.failf "mirrored install: %s" e);
  (* corrupt an archive: the build fails at staging with a checksum error *)
  let version = Ospack_version.Version.of_string "8.2" in
  let path =
    "/mirror/" ^ Ospack_buildsim.Mirror.archive_rel ~name:"dyninst" ~version
  in
  ignore (Vfs.write_file vfs path "TAMPERED");
  (match Installer.install inst (concretize "dyninst") with
  | Ok _ -> Alcotest.fail "corrupted archive must fail"
  | Error e ->
      Alcotest.(check bool) "checksum mismatch reported" true
        (Astring.String.is_infix ~affix:"checksum mismatch" e));
  (* a package missing from the mirror fails too *)
  ignore (Vfs.remove vfs "/mirror/mpich-3.0.4.tar.gz");
  match Installer.install inst (concretize "mpich") with
  | Ok _ -> Alcotest.fail "missing archive must fail"
  | Error e ->
      Alcotest.(check bool) "missing archive reported" true
        (Astring.String.is_infix ~affix:"no archive" e)

(* --- typed accounting: summaries, stats, staging failures --- *)

let summary_classification () =
  let _, inst = fresh () in
  let first = Installer.summary_of_outcomes (install inst "mpileaks ^mpich") in
  Alcotest.(check int) "all built" 5 first.Installer.s_built;
  Alcotest.(check int) "none reused" 0 first.Installer.s_reused;
  Alcotest.(check string) "first summary" "5 built, 0 reused"
    (Installer.summary_to_string first);
  let again = Installer.summary_of_outcomes (install inst "mpileaks ^mpich") in
  Alcotest.(check int) "nothing rebuilt" 0 again.Installer.s_built;
  Alcotest.(check int) "all reused" 5 again.Installer.s_reused;
  Alcotest.(check string) "reuse summary" "0 built, 5 reused"
    (Installer.summary_to_string again);
  (* lifetime stats accumulate across both installs *)
  let st = Installer.stats inst in
  Alcotest.(check int) "stats built" 5 st.Installer.st_built;
  Alcotest.(check int) "stats reused" 5 st.Installer.st_reused;
  Alcotest.(check int) "no cache configured, no misses" 0
    st.Installer.st_cache_misses

let cache_accounting () =
  let vfs = Vfs.create () in
  let cache = Ospack_store.Buildcache.create vfs ~root:"/ospack/buildcache" in
  (* seed the cache with just the dyninst sub-DAG *)
  let seeder = Installer.create ~vfs ~repo ~compilers () in
  (match Installer.install seeder (concretize "dyninst") with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "seed: %s" e);
  (match Installer.push_to_cache seeder cache with
  | Ok n -> Alcotest.(check int) "two entries pushed" 2 n
  | Error e -> Alcotest.failf "push: %s" e);
  let puller =
    Installer.create ~install_root:"/elsewhere/opt" ~cache ~vfs ~repo
      ~compilers ()
  in
  let outcomes =
    match Installer.install puller (concretize "mpileaks ^mpich") with
    | Ok o -> o
    | Error e -> Alcotest.failf "pull: %s" e
  in
  (* per-outcome flags: libelf+dyninst are hits, the rest are typed misses *)
  let name o = Concrete.root o.Installer.o_record.Database.r_spec in
  let hits = List.filter (fun o -> o.Installer.o_cached) outcomes in
  let misses = List.filter (fun o -> o.Installer.o_cache_miss) outcomes in
  Alcotest.(check (slist string compare))
    "cache hits" [ "dyninst"; "libelf" ] (List.map name hits);
  Alcotest.(check (slist string compare))
    "cache misses"
    [ "callpath"; "mpich"; "mpileaks" ]
    (List.map name misses);
  let s = Installer.summary_of_outcomes outcomes in
  Alcotest.(check string) "mixed summary"
    "3 built, 0 reused, 2 from cache, 3 cache misses"
    (Installer.summary_to_string s);
  let st = Installer.stats puller in
  Alcotest.(check int) "stats hits" 2 st.Installer.st_cache_hits;
  Alcotest.(check int) "stats misses" 3 st.Installer.st_cache_misses;
  Alcotest.(check int) "stats built" 3 st.Installer.st_built

let staging_failure_accounting () =
  let vfs = Vfs.create () in
  (* an empty mirror: every staging attempt fails before any build step *)
  let mirror = Ospack_buildsim.Mirror.create vfs ~root:"/mirror" in
  let obs = Ospack_obs.Obs.create () in
  let inst = Installer.create ~mirror ~obs ~vfs ~repo ~compilers () in
  (match Installer.install inst (concretize "libelf") with
  | Ok _ -> Alcotest.fail "empty mirror must fail staging"
  | Error e ->
      Alcotest.(check bool) "message still names the archive" true
        (Astring.String.is_infix ~affix:"no archive" e));
  (* the failure is classified from the typed Staging error, not the text *)
  let st = Installer.stats inst in
  Alcotest.(check int) "one staging failure" 1 st.Installer.st_staging_failures;
  Alcotest.(check int) "nothing built" 0 st.Installer.st_built;
  Alcotest.(check int) "obs counter agrees" 1
    (Ospack_obs.Obs.counter obs "install.staging_failures")

let index_persistence () =
  (* a second installer on the same filesystem picks up the store *)
  let vfs = Vfs.create () in
  let first = Installer.create ~vfs ~repo ~compilers () in
  (match Installer.install first (concretize "mpileaks ^mpich") with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "install: %s" e);
  (* the index persists as hash-prefix shards + manifest, not the
     whole-file index.json of older stores *)
  Alcotest.(check bool) "manifest written" true
    (Vfs.is_file vfs (Installer.manifest_path first));
  Alcotest.(check bool) "no legacy index" false
    (Vfs.is_file vfs (Installer.install_root first ^ "/.spack-db/index.json"));
  let records = Database.all (Installer.database first) in
  Alcotest.(check int) "five records" 5 (List.length records);
  List.iter
    (fun (r : Database.record) ->
      let shard =
        Installer.shard_path first (Database.shard_of_hash r.Database.r_hash)
      in
      Alcotest.(check bool) (shard ^ " exists") true (Vfs.is_file vfs shard))
    records;
  Alcotest.(check bool) "index bytes accounted" true
    (Installer.index_bytes_written first > 0);
  let second = Installer.create ~vfs ~repo ~compilers () in
  Alcotest.(check int) "fresh db empty" 0
    (Database.count (Installer.database second));
  (match Installer.load_index second with
  | Ok n -> Alcotest.(check int) "records loaded" 5 n
  | Error e -> Alcotest.failf "load_index: %s" e);
  (* and installs through the second installer are pure reuse *)
  (match Installer.install second (concretize "mpileaks ^mpich") with
  | Ok outcomes ->
      Alcotest.(check bool) "everything reused" true
        (List.for_all (fun o -> o.Installer.o_reused) outcomes)
  | Error e -> Alcotest.failf "reinstall: %s" e);
  (* empty filesystem: loading is a clean no-op *)
  let empty = Installer.create ~vfs:(Vfs.create ()) ~repo ~compilers () in
  Alcotest.(check (result int string)) "no index yet" (Ok 0)
    (Installer.load_index empty)

(* The index shards track every mutation. A seeded sequence of installs,
   explicit re-installs of reused dependencies (flipping [r_explicit]),
   uninstalls and reloads: after each node's save and each other step,
   every shard file must hold exactly [Database.all] filtered to that
   shard, and the manifest must list exactly the non-empty shards. *)

let shard_tracking () =
  let rng = Random.State.make [| 15 |] in
  let n = 30 in
  let pkg i = Printf.sprintf "p%02d" i in
  let gen_repo =
    Repository.create
      (List.init n (fun i ->
           let deps =
             if i = 0 then []
             else
               List.sort_uniq compare
                 (List.init (Random.State.int rng 3) (fun _ ->
                      Random.State.int rng i))
           in
           make_pkg (pkg i)
             ([ version "1.0"; version "2.0" ]
             @ List.map (fun d -> depends_on (pkg d)) deps)))
  in
  let gen_cctx = Concretizer.make_ctx ~compilers gen_repo in
  let vfs = Vfs.create () in
  let inst = ref (Installer.create ~vfs ~repo:gen_repo ~compilers ()) in
  let render j = Json.to_string ~indent:2 j ^ "\n" in
  let read path =
    match Vfs.read_file vfs path with
    | Ok s -> s
    | Error e -> Alcotest.failf "read %s: %s" path (Vfs.error_to_string e)
  in
  let widest = ref 0 in
  let check_index step =
    let all = Database.all (Installer.database !inst) in
    let live =
      List.sort_uniq String.compare
        (List.map (fun r -> Database.shard_of_hash r.Database.r_hash) all)
    in
    List.iter
      (fun key ->
        let records =
          List.filter
            (fun r -> Database.shard_of_hash r.Database.r_hash = key)
            all
        in
        widest := max !widest (List.length records);
        Alcotest.(check string)
          (Printf.sprintf "%s: shard %s" step key)
          (render
             (Json.Obj
                [
                  ("format", Json.Int 3);
                  ("records", Json.List (List.map Database.record_to_json records));
                ]))
          (read (Installer.shard_path !inst key)))
      live;
    Alcotest.(check string) (step ^ ": manifest")
      (render
         (Json.Obj
            [
              ("format", Json.Int 3);
              ("shards", Json.List (List.map (fun k -> Json.String k) live));
            ]))
      (read (Installer.manifest_path !inst));
    let on_disk =
      match Vfs.ls vfs (Installer.index_dir !inst) with
      | Ok names -> List.filter (fun f -> f <> "manifest.json") names
      | Error e -> Alcotest.failf "ls: %s" (Vfs.error_to_string e)
    in
    Alcotest.(check (slist string String.compare)) (step ^ ": shard files")
      (List.map (fun k -> k ^ ".json") live) on_disk
  in
  let flips = ref 0 and removals = ref 0 in
  for step = 1 to 120 do
    let db = Installer.database !inst in
    let what =
      match Random.State.int rng 10 with
      | 0 ->
          (* a fresh installer on the same store picks the index up *)
          let before = List.map Database.record_to_json (Database.all db) in
          inst := Installer.create ~vfs ~repo:gen_repo ~compilers ();
          (match Installer.load_index !inst with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "load_index: %s" e);
          Alcotest.(check bool) "reload equals the live database" true
            (before
            = List.map Database.record_to_json
                (Database.all (Installer.database !inst)));
          "reload"
      | 1 | 2 | 3 -> (
          let leaves =
            List.filter
              (fun r -> Database.dependents_of db r.Database.r_hash = [])
              (Database.all db)
          in
          match leaves with
          | [] -> "nothing to uninstall"
          | _ ->
              let r = List.nth leaves (Random.State.int rng (List.length leaves)) in
              (match Installer.uninstall !inst ~hash:r.Database.r_hash with
              | Ok _ -> incr removals
              | Error e -> Alcotest.failf "uninstall: %s" e);
              "uninstall " ^ Concrete.root r.Database.r_spec)
      | _ ->
          let spec =
            Printf.sprintf "%s@%d.0"
              (pkg (Random.State.int rng n))
              (1 + Random.State.int rng 2)
          in
          let c =
            match Concretizer.concretize_string gen_cctx spec with
            | Ok c -> c
            | Error e -> Alcotest.failf "concretize %s: %s" spec e
          in
          (match Database.find_by_hash db (Concrete.root_hash c) with
          | Some r when not r.Database.r_explicit -> incr flips
          | _ -> ());
          (* one node at a time, dependencies first, so each new node's
             save is checked on its own *)
          List.iter
            (fun name ->
              (match
                 Installer.install !inst
                   ~explicit:(name = Concrete.root c)
                   (Concrete.subspec c name)
               with
              | Ok _ -> ()
              | Error e -> Alcotest.failf "install %s: %s" spec e);
              check_index
                (Printf.sprintf "step %d (install %s, node %s)" step spec name))
            (Concrete.topological_order c);
          "install " ^ spec
    in
    check_index (Printf.sprintf "step %d (%s)" step what)
  done;
  Alcotest.(check bool) "explicit flips exercised" true (!flips > 0);
  Alcotest.(check bool) "uninstalls exercised" true (!removals > 0);
  Alcotest.(check bool) "a shard held several records" true (!widest >= 2)

let () =
  Alcotest.run "store"
    [
      ( "database",
        [
          Alcotest.test_case "queries" `Quick database_queries;
          Alcotest.test_case "dependents" `Quick dependents_tracking;
          Alcotest.test_case "dependents and gc order = brute force" `Quick
            dependents_oracle;
        ] );
      ( "installer",
        [
          Alcotest.test_case "bottom-up install" `Quick bottom_up_install;
          Alcotest.test_case "sub-DAG reuse (Fig. 9)" `Quick subdag_reuse;
          Alcotest.test_case "reuse writes and unlinks nothing" `Quick
            reuse_touches_nothing;
          Alcotest.test_case "uninstall safety" `Quick uninstall_safety;
          Alcotest.test_case "provenance (§3.4.3)" `Quick provenance_content;
          Alcotest.test_case "spec.json immune to preference drift" `Quick
            spec_json_survives_drift;
          Alcotest.test_case "external packages (§4.4)" `Quick
            external_packages;
          Alcotest.test_case "external spec mismatch" `Quick
            external_spec_mismatch;
          Alcotest.test_case "on-disk index persistence" `Quick
            index_persistence;
          Alcotest.test_case "corrupt shards refused typed" `Quick
            corrupt_shards_refused;
          Alcotest.test_case "padded DAGs refused" `Quick padded_dags_refused;
          Alcotest.test_case "index shards track every mutation" `Quick
            shard_tracking;
          Alcotest.test_case "binary cache with relocation" `Quick
            buildcache_roundtrip;
          Alcotest.test_case "buildcache save error propagation" `Quick
            buildcache_save_errors;
          Alcotest.test_case "stale symlinks + empty dirs on re-extract" `Quick
            buildcache_stale_links_and_dirs;
          Alcotest.test_case "truncated cache entry rejected" `Quick
            buildcache_truncated_rejected;
          Alcotest.test_case "mirror fetch + checksum verification" `Quick
            mirror_fetching;
          Alcotest.test_case "summary classification" `Quick
            summary_classification;
          Alcotest.test_case "buildcache hit/miss accounting" `Quick
            cache_accounting;
          Alcotest.test_case "staging failures counted typed" `Quick
            staging_failure_accounting;
        ] );
    ]
