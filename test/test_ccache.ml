(* The Merkle-fingerprinted concretization cache: base-fingerprint
   sensitivity to the shared declarative inputs, per-entry fingerprint
   sensitivity to exactly the dependency closure (plus virtual provider
   sets), lookup/store and reuse semantics on every concretizer backend,
   and validated persistence — a
   recipe edit evicts only the entries that can see it, wholesale
   mismatches and corruption discard everything, and a stale entry is
   never trusted. *)

open Ospack_package.Package
module Repository = Ospack_package.Repository
module Compilers = Ospack_config.Compilers
module Config = Ospack_config.Config
module Concretizer = Ospack_concretize.Concretizer
module Ccache = Ospack_concretize.Ccache
module Backends = Ospack_concretize.Backends
module Concrete = Ospack_spec.Concrete
module Parser = Ospack_spec.Parser
module Obs = Ospack_obs.Obs
module Vfs = Ospack_vfs.Vfs
module Json = Ospack_json.Json

let base_packages () =
  [
    make_pkg "app"
      [
        version "1.0"; version "2.0";
        depends_on "libx"; depends_on "mpi";
        variant "debug" ~descr:"debug symbols";
      ];
    make_pkg "libx" [ version "0.5"; version "0.6" ];
    make_pkg "mympi"
      [ version "1.9"; version "2.1"; provides "mpi@:2.2" ];
  ]

let bump_libx packages =
  make_pkg "libx" [ version "0.5"; version "0.6"; version "0.7" ]
  :: List.filter (fun p -> p.p_name <> "libx") packages

let compilers = Compilers.create [ Compilers.toolchain "gcc" "4.9.2" ]

let mk_context ?(config = Config.empty) ?(comps = compilers) ?backend packages
    =
  Ccache.context ?backend ~repo:(Repository.create packages) ~compilers:comps
    ~config ()

let base ?config ?comps ?backend packages =
  Ccache.base_fingerprint (mk_context ?config ?comps ?backend packages)

let ctx_of ?(config = Config.empty) ?obs packages =
  Concretizer.make_ctx ~config ?obs ~compilers
    (Repository.create packages)

let parse = Parser.parse_exn

let concretize_ok ?cache ?installed ?(backend = Backends.Greedy) ctx spec =
  match Backends.solve_cached ?cache ?installed backend ctx (parse spec) with
  | Ok c -> c
  | Error e ->
      Alcotest.failf "%s failed to concretize: %s" spec
        (Ospack_concretize.Cerror.to_string e)

(* --- base fingerprint sensitivity --- *)

let base_deterministic () =
  Alcotest.(check string) "same inputs, same base"
    (base (base_packages ()))
    (base (base_packages ()));
  Alcotest.(check int) "64 hex chars" 64
    (String.length (base (base_packages ())));
  (* recipes are covered per entry, not by the base: a recipe edit must
     not discard the whole cache *)
  Alcotest.(check string) "recipe edit leaves the base alone"
    (base (base_packages ()))
    (base (bump_libx (base_packages ())))

let base_compiler_mutation () =
  let b = base (base_packages ()) in
  let more =
    Compilers.create
      [ Compilers.toolchain "gcc" "4.9.2"; Compilers.toolchain "intel" "15.0" ]
  in
  Alcotest.(check bool) "extra toolchain changes base" true
    (base ~comps:more (base_packages ()) <> b);
  let newer = Compilers.create [ Compilers.toolchain "gcc" "5.3.0" ] in
  Alcotest.(check bool) "toolchain version changes base" true
    (base ~comps:newer (base_packages ()) <> b)

let base_config_mutation () =
  let b = base (base_packages ()) in
  (* any config key participates: the concretization policy reads its
     preferences from here, so covering the config covers the policy *)
  let prefer = Config.of_assoc [ ("prefer_compiler", "intel") ] in
  Alcotest.(check bool) "policy config changes base" true
    (base ~config:prefer (base_packages ()) <> b)

let base_backend_tag () =
  (* the selected concretizer backend extends the algorithm tag: entries
     produced by one backend are never served to another, so switching
     backends is a guaranteed cache miss *)
  let packages = base_packages () in
  let greedy_default = base packages in
  let greedy_explicit = base ~backend:"greedy" packages in
  let clauses = base ~backend:"clauses" packages in
  Alcotest.(check string) "default backend is greedy" greedy_default
    greedy_explicit;
  Alcotest.(check bool) "clauses backend changes base" true
    (clauses <> greedy_default)

(* --- per-entry Merkle fingerprint sensitivity --- *)

let entry_closure_sensitivity () =
  let packages = base_packages () in
  let app = concretize_ok (ctx_of packages) "app@1.0" in
  let lib = concretize_ok (ctx_of packages) "libx" in
  let cx0 = mk_context packages in
  Alcotest.(check int) "64 hex chars" 64
    (String.length (Ccache.entry_fingerprint cx0 app));
  Alcotest.(check string) "deterministic"
    (Ccache.entry_fingerprint cx0 app)
    (Ccache.entry_fingerprint (mk_context packages) app);
  (* adding a version to libx is the classic recipe edit: the old pin
     could be suboptimal, so every closure containing libx must change *)
  let cxb = mk_context (bump_libx packages) in
  Alcotest.(check bool) "libx edit reaches app's closure" true
    (Ccache.entry_fingerprint cxb app <> Ccache.entry_fingerprint cx0 app);
  Alcotest.(check bool) "libx edit reaches the libx entry" true
    (Ccache.entry_fingerprint cxb lib <> Ccache.entry_fingerprint cx0 lib);
  (* a package outside the closure is invisible to the fingerprint *)
  let unrelated = make_pkg "bystander" [ version "1.0" ] :: packages in
  let cxu = mk_context unrelated in
  Alcotest.(check string) "unrelated recipe leaves app alone"
    (Ccache.entry_fingerprint cx0 app)
    (Ccache.entry_fingerprint cxu app)

let entry_provider_sensitivity () =
  (* soundness corner: a new provider of a virtual the closure uses can
     flip provider selection even though the stored DAG never contained
     it, so it must invalidate — while entries that use no such virtual
     survive *)
  let packages = base_packages () in
  let app = concretize_ok (ctx_of packages) "app@1.0" in
  let lib = concretize_ok (ctx_of packages) "libx" in
  let cx0 = mk_context packages in
  let with_rival =
    make_pkg "othermpi" [ version "9.0"; provides "mpi@:3" ] :: packages
  in
  let cxr = mk_context with_rival in
  Alcotest.(check bool) "new mpi provider invalidates app" true
    (Ccache.entry_fingerprint cxr app <> Ccache.entry_fingerprint cx0 app);
  Alcotest.(check string) "new mpi provider leaves libx alone"
    (Ccache.entry_fingerprint cx0 lib)
    (Ccache.entry_fingerprint cxr lib)

(* --- lookup / store / reuse, on every backend --- *)

let cache_of ?obs backend packages =
  Ccache.create ?obs
    ~context:(mk_context ~backend:(Backends.to_string backend) packages)
    ()

let lookup_store_semantics () =
  List.iter
    (fun backend ->
      let obs = Obs.create () in
      let packages = base_packages () in
      let cache = cache_of ~obs backend packages in
      let ctx = ctx_of packages in
      let ast = parse "app@1.0+debug" in
      Alcotest.(check bool) "cold lookup misses" true
        (Ccache.lookup cache ast = None);
      let c = concretize_ok ~cache ~backend ctx "app@1.0+debug" in
      Alcotest.(check int) "one entry" 1 (Ccache.length cache);
      (match Ccache.lookup cache ast with
      | Some c' ->
          Alcotest.(check bool) "hit equals stored" true (Concrete.equal c c')
      | None -> Alcotest.fail "warm lookup should hit");
      (* the same AST spelled differently shares the canonical key *)
      (match Ccache.lookup cache (parse "app +debug @1.0") with
      | Some _ -> ()
      | None -> Alcotest.fail "canonicalized spelling should hit");
      Alcotest.(check int) "misses counted" 2 (Obs.counter obs "ccache.misses");
      Alcotest.(check bool) "hits counted" true
        (Obs.counter obs "ccache.hits" >= 2);
      (* a node of a stored DAG is not an entry of its own *)
      Alcotest.(check bool) "dependency is not an entry" true
        (Ccache.lookup cache (parse "libx") = None))
    Backends.all

let cached_equals_cold () =
  List.iter
    (fun backend ->
      let packages = base_packages () in
      let cache = cache_of backend packages in
      let ctx = ctx_of packages in
      List.iter
        (fun spec ->
          let cold =
            match Backends.solve backend ctx (parse spec) with
            | Ok c -> c
            | Error _ -> Alcotest.failf "%s should concretize" spec
          in
          let first = concretize_ok ~cache ~backend ctx spec in
          let warm = concretize_ok ~cache ~backend ctx spec in
          Alcotest.(check bool) (spec ^ ": cached = cold") true
            (Concrete.equal cold first && Concrete.equal cold warm))
        [ "app"; "app@1.0"; "app+debug"; "libx"; "mympi@1.9"; "mpi" ])
    Backends.all

let reuse_layer () =
  List.iter
    (fun backend ->
      let obs = Obs.create () in
      let packages = base_packages () in
      let cache = cache_of ~obs backend packages in
      (* reuse_hits is recorded on the concretizer context's sink *)
      let ctx = ctx_of ~obs packages in
      let installed_spec = concretize_ok ~backend ctx "app@1.0" in
      let installed ast =
        if Concrete.satisfies installed_spec ast then Some installed_spec
        else None
      in
      let entries_before = Ccache.length cache in
      let got = concretize_ok ~cache ~installed ~backend ctx "app" in
      Alcotest.(check bool) "reuse returns the installed spec as-is" true
        (Concrete.equal got installed_spec);
      Alcotest.(check int) "reuse hit counted" 1
        (Obs.counter obs "ccache.reuse_hits");
      Alcotest.(check int) "reuse result not stored back" entries_before
        (Ccache.length cache);
      (* a query the store cannot satisfy falls through to the solver *)
      let solved = concretize_ok ~cache ~installed ~backend ctx "app@2.0" in
      Alcotest.(check bool) "fallthrough solves fresh" true
        (not (Concrete.equal solved installed_spec)))
    Backends.all

(* --- persistence and invalidation --- *)

let dir = "/store/.spack-db/ccache"

let save_ok cache fs =
  match Ccache.save cache fs ~path:dir with
  | Ok () -> ()
  | Error e -> Alcotest.failf "save failed: %s" e

let shard_names fs =
  match Vfs.ls fs dir with Ok names -> names | Error _ -> []

(* every shard file with its bytes *)
let shard_files fs =
  List.map
    (fun n -> (n, Result.get_ok (Vfs.read_file fs (dir ^ "/" ^ n))))
    (shard_names fs)

let save_load_roundtrip () =
  let packages = base_packages () in
  let cx = mk_context packages in
  let cache = Ccache.create ~context:cx () in
  let ctx = ctx_of packages in
  let c = concretize_ok ~cache ctx "app@1.0" in
  let fs = Vfs.create () in
  save_ok cache fs;
  Alcotest.(check (list string)) "one shard, no temp file left behind"
    [ "7d.json" ] (shard_names fs);
  let obs = Obs.create () in
  let reloaded = Ccache.load ~obs ~context:cx fs ~path:dir in
  Alcotest.(check int) "entries survive" 1 (Ccache.length reloaded);
  (match Ccache.lookup reloaded (parse "app@1.0") with
  | Some c' ->
      Alcotest.(check bool) "reloaded entry identical" true (Concrete.equal c c')
  | None -> Alcotest.fail "reloaded cache should hit");
  Alcotest.(check int) "clean load is not an invalidation" 0
    (Obs.counter obs "ccache.invalidations");
  Vfs.reset_counters fs;
  save_ok reloaded fs;
  Alcotest.(check int) "a clean load leaves nothing to save" 0
    (Vfs.counters fs).Vfs.write

(* a cache of 120 entries over many shards: libx's concretization under
   120 distinct version-range keys *)
let big_cache cx =
  let cache = Ccache.create ~context:cx () in
  let c = concretize_ok (ctx_of (base_packages ())) "libx@0.5" in
  for i = 1 to 120 do
    Ccache.store cache (parse (Printf.sprintf "libx@0.%d:" i)) c
  done;
  (cache, c)

(* a save costs what changed: one new entry rewrites exactly its own
   shard, with one write and one rename, and a second save writes
   nothing *)
let save_traffic_shape () =
  let cx = mk_context (base_packages ()) in
  let cache, c = big_cache cx in
  let fs = Vfs.create () in
  save_ok cache fs;
  let before = shard_files fs in
  Alcotest.(check bool) "the entries spread over many shards" true
    (List.length before > 50);
  Ccache.store cache (parse "libx@0.5") c;
  Vfs.reset_counters fs;
  Vfs.set_fault_plan fs [];
  save_ok cache fs;
  Alcotest.(check int) "one shard written: its .tmp, then the rename" 2
    (Vfs.counters fs).Vfs.write;
  Alcotest.(check int) "two barriers" 2 (Vfs.write_barriers fs);
  let after = shard_files fs in
  let changed =
    List.filter (fun (n, b) -> List.assoc_opt n before <> Some b) after
  in
  Alcotest.(check int) "exactly one shard file changed bytes" 1
    (List.length changed);
  Alcotest.(check int) "no shard file vanished" (List.length before)
    (List.length (List.filter (fun (n, _) -> List.mem_assoc n after) before));
  Vfs.set_fault_plan fs [];
  save_ok cache fs;
  Alcotest.(check int) "nothing dirty, nothing written" 0
    (Vfs.write_barriers fs);
  Vfs.clear_fault_plan fs

(* the splice renderer is the reference serializer, byte for byte, and
   the shard files partition exactly the exported entries *)
let splice_renderer_identity () =
  let cx = mk_context (base_packages ()) in
  let reference t = Json.to_string ~indent:2 (Ccache.to_json t) in
  let empty = Ccache.create ~context:cx () in
  Alcotest.(check string) "empty cache" (reference empty)
    (Ccache.to_string empty);
  let cache, _ = big_cache cx in
  ignore (concretize_ok ~cache (ctx_of (base_packages ())) "app@1.0+debug");
  Alcotest.(check string) "many entries" (reference cache)
    (Ccache.to_string cache);
  let fs = Vfs.create () in
  save_ok cache fs;
  let reloaded = Ccache.load ~context:cx fs ~path:dir in
  Alcotest.(check string) "reloaded cache" (reference cache)
    (Ccache.to_string reloaded);
  (* a document's entries as (spec, rendered entry) *)
  let entries text =
    let doc = Result.get_ok (Json.of_string text) in
    Option.value ~default:[]
      (Option.bind (Json.member "entries" doc) Json.to_list)
    |> List.map (fun e ->
           let spec = Option.bind (Json.member "spec" e) Json.get_string in
           (spec, Json.to_string e))
  in
  Alcotest.(check (list (pair (option string) string)))
    "union of the shards = the export"
    (entries (Ccache.to_string cache))
    (List.concat_map (fun (_, b) -> entries b) (shard_files fs)
    |> List.sort compare)

(* a kill at either barrier of a save leaves the previous cache: a
   reload sees exactly the old entries (spread over several shards),
   with nothing evicted and no torn shard *)
let save_crash_sweep () =
  let packages = base_packages () in
  let cx = mk_context packages in
  let ctx = ctx_of packages in
  let old = Ccache.create ~context:cx () in
  List.iter
    (fun spec -> ignore (concretize_ok ~cache:old ctx spec))
    [ "app@1.0"; "app@2.0"; "mympi@2.1" ];
  let old_json = Json.to_string (Ccache.to_json old) in
  (* a save leaves its cache clean, so every world persists a fresh copy *)
  let world () =
    let fs = Vfs.create () in
    save_ok (Ccache.of_string ~context:cx (Ccache.to_string old)) fs;
    fs
  in
  Alcotest.(check int) "the old entries span three shards" 3
    (List.length (shard_names (world ())));
  let extra = concretize_ok ctx "libx@0.5" in
  let run fs =
    let cache = Ccache.load ~context:cx fs ~path:dir in
    Ccache.store cache (parse "libx@0.5") extra;
    Ccache.save cache fs ~path:dir
  in
  let check () _k fs =
    let obs = Obs.create () in
    let reloaded = Ccache.load ~obs ~context:cx fs ~path:dir in
    match
      List.find_opt
        (fun (_, b) -> Result.is_error (Json.of_string b))
        (shard_files fs)
    with
    | Some (n, _) -> Error ("torn shard " ^ n)
    | None
      when List.exists
             (fun n -> Filename.check_suffix n ".tmp")
             (shard_names fs) ->
        Error "the reload left a stranded .tmp"
    | None when Obs.counter obs "ccache.invalidations" <> 0 ->
        Error "reload evicted entries"
    | None when Json.to_string (Ccache.to_json reloaded) <> old_json ->
        Error "reload is not exactly the old entries"
    | None -> Ok (Ccache.length reloaded)
  in
  match Vfs.crash_sweep ~world ~run check with
  | Error e -> Alcotest.fail e
  | Ok (barriers, kills) ->
      Alcotest.(check int) "one dirty shard crosses two barriers" 2 barriers;
      Alcotest.(check (list int)) "three old entries at every kill" [ 3; 3 ]
        kills

let unrelated_edit_survival () =
  (* THE point of per-entry fingerprints: editing one recipe evicts only
     the entries whose closure can see it — unrelated entries stay live
     across the reload, and invalidations count evicted entries only *)
  let packages = base_packages () in
  let cache = Ccache.create ~context:(mk_context packages) () in
  let ctx = ctx_of packages in
  ignore (concretize_ok ~cache ctx "app@1.0");
  ignore (concretize_ok ~cache ctx "mympi@2.1");
  let fs = Vfs.create () in
  save_ok cache fs;
  (* libx is in app's closure but not mympi's *)
  let obs = Obs.create () in
  let cx' = mk_context (bump_libx packages) in
  let reloaded = Ccache.load ~obs ~context:cx' fs ~path:dir in
  Alcotest.(check int) "exactly the app entry evicted" 1
    (Obs.counter obs "ccache.invalidations");
  Alcotest.(check int) "the unrelated entry survives" 1
    (Ccache.length reloaded);
  Alcotest.(check bool) "survivor is servable" true
    (Ccache.lookup reloaded (parse "mympi@2.1") <> None);
  Alcotest.(check bool) "evicted entry is not served" true
    (Ccache.lookup reloaded (parse "app@1.0") = None)

(* an eviction is counted by one load only: the next save drops the
   evicted entry from its shard, removing the shard once it is empty *)
let eviction_counted_once () =
  let packages = base_packages () in
  let cache = Ccache.create ~context:(mk_context packages) () in
  let ctx = ctx_of packages in
  ignore (concretize_ok ~cache ctx "app@1.0");
  ignore (concretize_ok ~cache ctx "mympi@2.1");
  let fs = Vfs.create () in
  save_ok cache fs;
  Alcotest.(check (list string)) "two shards" [ "7d.json"; "b1.json" ]
    (shard_names fs);
  let cx' = mk_context (bump_libx packages) in
  let load () =
    let obs = Obs.create () in
    let c = Ccache.load ~obs ~context:cx' fs ~path:dir in
    (c, Obs.counter obs "ccache.invalidations")
  in
  let evicting, lost = load () in
  Alcotest.(check int) "the libx bump evicts app" 1 lost;
  save_ok evicting fs;
  let reloaded, lost = load () in
  Alcotest.(check int) "the next load evicts nothing" 0 lost;
  Alcotest.(check int) "the survivor stays" 1 (Ccache.length reloaded);
  Alcotest.(check (list string)) "the emptied shard is gone" [ "b1.json" ]
    (shard_names fs);
  (* garbage and misfiled entries are losses of their file too *)
  let write name text =
    Result.get_ok (Vfs.write_file fs (dir ^ "/" ^ name) text)
  in
  write "00.json" "{ not json";
  write "01.json" (Ccache.to_string reloaded);
  let _, lost = load () in
  Alcotest.(check int) "a torn and a misfiled shard" 2 lost;
  let _, lost = load () in
  Alcotest.(check int) "counted again until saved" 2 lost;
  let c, _ = load () in
  save_ok c fs;
  let _, lost = load () in
  Alcotest.(check int) "saved, then clean" 0 lost;
  Alcotest.(check (list string)) "both bad files removed" [ "b1.json" ]
    (shard_names fs)

let wholesale_base_mismatch () =
  let packages = base_packages () in
  let cache = Ccache.create ~context:(mk_context packages) () in
  let ctx = ctx_of packages in
  ignore (concretize_ok ~cache ctx "app@1.0");
  ignore (concretize_ok ~cache ctx "libx");
  let fs = Vfs.create () in
  save_ok cache fs;
  (* a config change shifts the base fingerprint: every entry is lost,
     and the counter says so per entry *)
  let prefer = Config.of_assoc [ ("prefer_compiler", "intel") ] in
  let obs = Obs.create () in
  let reloaded =
    Ccache.load ~obs ~context:(mk_context ~config:prefer packages) fs
      ~path:dir
  in
  Alcotest.(check int) "everything discarded" 0 (Ccache.length reloaded);
  Alcotest.(check int) "one invalidation per lost entry" 2
    (Obs.counter obs "ccache.invalidations");
  Alcotest.(check bool) "no stale entry served" true
    (Ccache.lookup reloaded (parse "app@1.0") = None)

(* the one validator of outside bytes, shared by shard files and
   imported exports *)
let corrupt_cache_ignored () =
  let cx = mk_context (base_packages ()) in
  let load_counting content =
    let obs = Obs.create () in
    let c = Ccache.of_string ~obs ~context:cx content in
    (Ccache.length c, Obs.counter obs "ccache.invalidations")
  in
  let b = Ccache.base_fingerprint cx in
  Alcotest.(check (pair int int)) "unparsable JSON" (0, 1)
    (load_counting "{ not json");
  Alcotest.(check (pair int int)) "wrong shape" (0, 1)
    (load_counting "[1, 2, 3]");
  Alcotest.(check (pair int int)) "future format version" (0, 1)
    (load_counting
       (Printf.sprintf "{\"format\": 99, \"base\": %S, \"entries\": []}" b));
  Alcotest.(check (pair int int)) "pre-Merkle format 1 cache" (0, 1)
    (load_counting
       (Printf.sprintf
          "{\"format\": 1, \"fingerprint\": %S, \"entries\": []}" b));
  Alcotest.(check (pair int int)) "entry that is not a concrete spec" (0, 1)
    (load_counting
       (Printf.sprintf
          "{\"format\": 2, \"base\": %S, \"entries\": [{\"spec\": \"app\", \
           \"merkle\": \"deadbeef\", \"concrete\": 42}]}"
          b));
  Alcotest.(check (pair int int)) "tampered merkle field" (0, 1)
    (load_counting
       (let cache = Ccache.create ~context:cx () in
        ignore (concretize_ok ~cache (ctx_of (base_packages ())) "libx");
        (* corrupt the recorded fingerprint without touching the DAG *)
        let rec tamper = function
          | Json.Obj fields ->
              Json.Obj
                (List.map
                   (fun (k, v) ->
                     if k = "merkle" then (k, Json.String "0deadbeef")
                     else (k, tamper v))
                   fields)
          | Json.List l -> Json.List (List.map tamper l)
          | j -> j
        in
        Json.to_string (tamper (Ccache.to_json cache))));
  (* a missing directory is an empty cache, not corruption *)
  let obs = Obs.create () in
  let c = Ccache.load ~obs ~context:cx (Vfs.create ()) ~path:dir in
  Alcotest.(check int) "missing directory is empty" 0 (Ccache.length c);
  Alcotest.(check int) "missing directory is not an invalidation" 0
    (Obs.counter obs "ccache.invalidations")

(* a --ccache import passes the shard validator and lands on disk as
   shards: re-exporting it is byte-identical, and the reload a site layer
   forces sees (and, under its new base, evicts) every imported entry *)
let import_persists_as_shards () =
  let module Context = Ospack.Context in
  let solving = Context.create () in
  List.iter
    (fun q ->
      match Ospack.Commands.spec solving q with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: %s" q e)
    [ "libelf"; "libdwarf"; "mpileaks" ];
  let export = Context.export_ccache solving in
  let obs = Obs.create () in
  let ctx = Context.create ~ccache_json:export ~obs () in
  Alcotest.(check int) "a clean import evicts nothing" 0
    (Obs.counter obs "ccache.invalidations");
  Alcotest.(check string) "export round-trips" export
    (Context.export_ccache ctx);
  Alcotest.(check int) "three entries in three shards" 3
    (List.length
       (Result.get_ok (Vfs.ls ctx.Context.vfs ctx.Context.ccache_path)));
  ignore
    (Context.with_site_packages ctx [ make_pkg "sitepkg" [ version "1.0" ] ]);
  Alcotest.(check int) "the site reload saw every imported entry" 3
    (Obs.counter obs "ccache.invalidations")

let mutation_forces_miss_end_to_end () =
  (* the full cycle a user sees: concretize, persist, edit a recipe,
     concretize again — the second run must re-solve, not replay *)
  let packages = base_packages () in
  let fs = Vfs.create () in
  let cache = Ccache.create ~context:(mk_context packages) () in
  let c1 = concretize_ok ~cache (ctx_of packages) "libx" in
  save_ok cache fs;
  Alcotest.(check string) "cold pick is newest" "0.6"
    (Ospack_version.Version.to_string (Concrete.root_node c1).Concrete.version);
  let bumped = bump_libx packages in
  let obs = Obs.create () in
  let cache2 = Ccache.load ~obs ~context:(mk_context bumped) fs ~path:dir in
  let c2 = concretize_ok ~cache:cache2 (ctx_of bumped) "libx" in
  Alcotest.(check int) "stale entry invalidated" 1
    (Obs.counter obs "ccache.invalidations");
  Alcotest.(check int) "second run is a miss" 1
    (Obs.counter obs "ccache.misses");
  Alcotest.(check string) "re-solve sees the new version" "0.7"
    (Ospack_version.Version.to_string (Concrete.root_node c2).Concrete.version)

let () =
  Alcotest.run "ccache"
    [
      ( "fingerprint",
        [
          Alcotest.test_case "base deterministic" `Quick base_deterministic;
          Alcotest.test_case "compiler mutation" `Quick base_compiler_mutation;
          Alcotest.test_case "config mutation" `Quick base_config_mutation;
          Alcotest.test_case "backend tag" `Quick base_backend_tag;
          Alcotest.test_case "entry closure sensitivity" `Quick
            entry_closure_sensitivity;
          Alcotest.test_case "entry provider sensitivity" `Quick
            entry_provider_sensitivity;
        ] );
      ( "memo",
        [
          Alcotest.test_case "lookup/store" `Quick lookup_store_semantics;
          Alcotest.test_case "cached = cold" `Quick cached_equals_cold;
          Alcotest.test_case "store-aware reuse" `Quick reuse_layer;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "save/load round-trip" `Quick save_load_roundtrip;
          Alcotest.test_case "save killed at every barrier" `Quick
            save_crash_sweep;
          Alcotest.test_case "save writes only the dirty shard" `Quick
            save_traffic_shape;
          Alcotest.test_case "splice renderer = reference" `Quick
            splice_renderer_identity;
          Alcotest.test_case "eviction counted once" `Quick
            eviction_counted_once;
          Alcotest.test_case "unrelated edit survival" `Quick
            unrelated_edit_survival;
          Alcotest.test_case "wholesale base mismatch" `Quick
            wholesale_base_mismatch;
          Alcotest.test_case "corrupt cache ignored" `Quick
            corrupt_cache_ignored;
          Alcotest.test_case "recipe edit forces re-solve" `Quick
            mutation_forces_miss_end_to_end;
          Alcotest.test_case "import persists as shards" `Quick
            import_persists_as_shards;
        ] );
    ]
