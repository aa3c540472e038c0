module Vfs = Ospack_vfs.Vfs
module Json = Ospack_json.Json
module Ast = Ospack_spec.Ast
module Parser = Ospack_spec.Parser
module Printer = Ospack_spec.Printer
module Concrete = Ospack_spec.Concrete
module Installer = Ospack_store.Installer
module Database = Ospack_store.Database
module Ccache = Ospack_concretize.Ccache
module Multiroot = Ospack_concretize.Multiroot
module Sha256 = Ospack_hash.Sha256
module Obs = Ospack_obs.Obs

type t = {
  env_name : string;
  env_roots : string list;  (** canonical printed forms, insertion order *)
  env_view : string option;
}

let envs_root = "/ospack/envs"

let manifest_path name = Printf.sprintf "%s/%s/env.json" envs_root name
let lock_path name = Printf.sprintf "%s/%s/lock.json" envs_root name

let lock_format = 2

let valid_name name =
  name <> ""
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '_' || c = '-')
       name

let ( let* ) = Result.bind

let persist (ctx : Context.t) t =
  let manifest =
    Json.Obj
      [
        ("name", Json.String t.env_name);
        ("roots", Json.List (List.map (fun r -> Json.String r) t.env_roots));
        ( "view",
          match t.env_view with
          | Some v -> Json.String v
          | None -> Json.Null );
      ]
  in
  (* like every durable file an environment owns, a crash at any barrier
     leaves the previous manifest intact (the torture sweep below kills
     each one) *)
  Vfs.write_atomic ctx.Context.vfs (manifest_path t.env_name)
    (Json.to_string ~indent:2 manifest ^ "\n")
  |> Result.map (fun () -> t)
  |> Result.map_error Vfs.error_to_string

let create (ctx : Context.t) ~name ?view () =
  if not (valid_name name) then
    Error (Printf.sprintf "invalid environment name %S" name)
  else if Vfs.exists ctx.Context.vfs (manifest_path name) then
    Error (Printf.sprintf "environment %s already exists" name)
  else persist ctx { env_name = name; env_roots = []; env_view = view }

let load (ctx : Context.t) ~name =
  match Vfs.read_file ctx.Context.vfs (manifest_path name) with
  | Error _ -> Error (Printf.sprintf "no environment named %s" name)
  | Ok content -> (
      let* j =
        Result.map_error (fun e -> "env manifest: " ^ e) (Json.of_string content)
      in
      let* roots =
        match Option.bind (Json.member "roots" j) Json.to_list with
        | Some items -> Ok (List.filter_map Json.get_string items)
        | None -> Error "env manifest: missing roots"
      in
      let view = Option.bind (Json.member "view" j) Json.get_string in
      Ok { env_name = name; env_roots = roots; env_view = view })

let list_envs (ctx : Context.t) =
  match Vfs.ls ctx.Context.vfs envs_root with
  | Error _ -> []
  | Ok entries ->
      List.filter
        (fun name -> Vfs.is_file ctx.Context.vfs (manifest_path name))
        entries

(* Roots are stored canonically — the parsed AST's printed form — so
   [mpileaks@1.0] and [mpileaks @1.0] are one root, not two, and the
   manifest is insensitive to the user's whitespace. *)
let canonical spec =
  Result.map Printer.to_string (Parser.parse spec)

(* a pre-canonicalization manifest may still hold raw user spellings *)
let canonical_roots t =
  List.map (fun r -> match canonical r with Ok c -> c | Error _ -> r)
    t.env_roots

let add (ctx : Context.t) t spec =
  let* canon = canonical spec in
  if List.mem canon (canonical_roots t) then
    Error (Printf.sprintf "%s is already a root of %s" canon t.env_name)
  else persist ctx { t with env_roots = t.env_roots @ [ canon ] }

let remove_root (ctx : Context.t) t spec =
  let canon = match canonical spec with Ok c -> c | Error _ -> spec in
  if not (List.mem canon (canonical_roots t)) then
    Error (Printf.sprintf "%s is not a root of %s" canon t.env_name)
  else
    persist ctx
      {
        t with
        env_roots =
          List.filter
            (fun r ->
              (match canonical r with Ok c -> c | Error _ -> r) <> canon)
            t.env_roots;
      }

(* ------------------------------------------------------------------ *)
(* Lockfile format 2                                                  *)

type lock_error =
  | Lock_missing
  | Lock_corrupt of string
  | Lock_stale of {
      lock_fp : string;
      current_fp : string;
      reason : string;
    }

let lock_error_to_string = function
  | Lock_missing -> "no lockfile (run env install first)"
  | Lock_corrupt why -> Printf.sprintf "lockfile corrupt: %s" why
  | Lock_stale { lock_fp; current_fp; reason } ->
      Printf.sprintf
        "lockfile stale: %s (locked at fingerprint %s.., context is now \
         %s..) — re-run env install to re-solve"
        reason
        (String.sub lock_fp 0 (min 12 (String.length lock_fp)))
        (String.sub current_fp 0 (min 12 (String.length current_fp)))

type lock = {
  lk_fingerprint : string;
  lk_roots : string list;
  lk_specs : (string * Concrete.t) list;
}

let current_fingerprint (ctx : Context.t) =
  Ccache.base_fingerprint (Ccache.context_of ctx.Context.ccache)

(* the checksum covers the canonical rendering of every payload field,
   so any bit of tampering — a flipped hash, an edited spec, a dropped
   root — is detected before the fingerprint is even consulted *)
let lock_payload ~fingerprint ~merkle_of pairs =
  [
    ("format", Json.Int lock_format);
    ("fingerprint", Json.String fingerprint);
    ("roots", Json.List (List.map (fun (r, _) -> Json.String r) pairs));
    ( "specs",
      Json.List
        (List.map
           (fun (root, c) ->
             Json.Obj
               [
                 ("root", Json.String root);
                 ("hash", Json.String (Concrete.root_hash c));
                 ("merkle", Json.String (merkle_of c));
                 ("concrete", Concrete.to_json c);
               ])
           pairs) );
  ]

let lock_checksum payload =
  Sha256.hex_digest (Json.to_string ~indent:2 (Json.Obj payload))

let render_lock ~fingerprint ~merkle_of pairs =
  let payload = lock_payload ~fingerprint ~merkle_of pairs in
  let full =
    match payload with
    | format :: rest ->
        (format :: ("checksum", Json.String (lock_checksum payload)) :: rest)
    | [] -> assert false
  in
  Json.to_string ~indent:2 (Json.Obj full) ^ "\n"

let write_lock (ctx : Context.t) t pairs =
  let cx = Ccache.context_of ctx.Context.ccache in
  Vfs.write_atomic ctx.Context.vfs (lock_path t.env_name)
    (render_lock ~fingerprint:(current_fingerprint ctx)
       ~merkle_of:(Ccache.entry_fingerprint cx) pairs)
  |> Result.map_error Vfs.error_to_string

let parse_lock j =
  let field name =
    match Json.member name j with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing %s" name)
  in
  let* checksum =
    let* c = field "checksum" in
    match Json.get_string c with
    | Some s -> Ok s
    | None -> Error "checksum is not a string"
  in
  (* recompute over the parsed payload minus the checksum itself *)
  let* payload =
    match j with
    | Json.Obj fields ->
        Ok (List.filter (fun (k, _) -> k <> "checksum") fields)
    | _ -> Error "lockfile is not an object"
  in
  if lock_checksum payload <> checksum then
    Error "checksum mismatch (file was edited by hand?)"
  else
    let* fingerprint =
      let* f = field "fingerprint" in
      match Json.get_string f with
      | Some s -> Ok s
      | None -> Error "fingerprint is not a string"
    in
    let* roots =
      let* r = field "roots" in
      match Json.to_list r with
      | Some items -> Ok (List.filter_map Json.get_string items)
      | None -> Error "roots is not a list"
    in
    let* items =
      let* s = field "specs" in
      match Json.to_list s with
      | Some items -> Ok items
      | None -> Error "specs is not a list"
    in
    let* specs =
      List.fold_left
        (fun acc item ->
          let* specs = acc in
          let* root =
            match Option.bind (Json.member "root" item) Json.get_string with
            | Some r -> Ok r
            | None -> Error "spec entry: missing root"
          in
          let* recorded_hash =
            match Option.bind (Json.member "hash" item) Json.get_string with
            | Some h -> Ok h
            | None -> Error "spec entry: missing hash"
          in
          let* merkle =
            match Option.bind (Json.member "merkle" item) Json.get_string with
            | Some m -> Ok m
            | None -> Error "spec entry: missing merkle"
          in
          let* c =
            match Json.member "concrete" item with
            | Some cj -> Concrete.of_json cj
            | None -> Error "spec entry: missing concrete"
          in
          if Concrete.root_hash c <> recorded_hash then
            Error
              (Printf.sprintf "%s: recorded hash %s does not match its DAG"
                 root recorded_hash)
          else Ok ((root, merkle, c) :: specs))
        (Ok []) items
      |> Result.map List.rev
    in
    Ok (fingerprint, roots, specs)

let read_lock (ctx : Context.t) t =
  match Vfs.read_file ctx.Context.vfs (lock_path t.env_name) with
  | Error _ -> Error Lock_missing
  | Ok content -> (
      let corrupt why = Error (Lock_corrupt why) in
      match Json.of_string content with
      | Error e -> corrupt e
      | Ok j -> (
          match Option.bind (Json.member "format" j) Json.get_int with
          | Some f when f = lock_format -> (
              match parse_lock j with
              | Error why -> corrupt why
              | Ok (fingerprint, roots, specs) ->
                  let current = current_fingerprint ctx in
                  if fingerprint <> current then
                    Error
                      (Lock_stale
                         {
                           lock_fp = fingerprint;
                           current_fp = current;
                           reason =
                             "context fingerprint changed (universe, \
                              toolchains, config, or backend)";
                         })
                  else if roots <> canonical_roots t then
                    Error
                      (Lock_stale
                         {
                           lock_fp = fingerprint;
                           current_fp = current;
                           reason = "environment roots changed since lock";
                         })
                  else
                    (* the base fingerprint covers everything but the
                       recipes; the per-spec Merkle fingerprint catches an
                       edited package inside any locked closure *)
                    let cx = Ccache.context_of ctx.Context.ccache in
                    let drifted =
                      List.filter_map
                        (fun (root, merkle, c) ->
                          if Ccache.entry_fingerprint cx c = merkle then
                            None
                          else Some root)
                        specs
                    in
                    match drifted with
                    | [] ->
                        Ok
                          {
                            lk_fingerprint = fingerprint;
                            lk_roots = roots;
                            lk_specs =
                              List.map (fun (r, _, c) -> (r, c)) specs;
                          }
                    | roots ->
                        Error
                          (Lock_stale
                             {
                               lock_fp = fingerprint;
                               current_fp = current;
                               reason =
                                 Printf.sprintf
                                   "package recipes drifted under %s"
                                   (String.concat ", " roots);
                             }))
          | Some f ->
              corrupt (Printf.sprintf "unsupported lockfile format %d" f)
          | None -> corrupt "missing format"))

let locked_specs (ctx : Context.t) t =
  match read_lock ctx t with
  | Ok lock -> Ok (List.map snd lock.lk_specs)
  | Error e -> Error (lock_error_to_string e)

(* ------------------------------------------------------------------ *)
(* Solve / fetch                                                      *)

let parse_roots t =
  List.fold_left
    (fun acc root ->
      let* asts = acc in
      let* ast = Parser.parse root in
      Ok (ast :: asts))
    (Ok []) t.env_roots
  |> Result.map List.rev

(* The unified solve: all roots in one pass through the shared constraint
   context, memoized in the ordinary concretization cache. *)
let concretize_roots (ctx : Context.t) t =
  let* asts = parse_roots t in
  let before = Ccache.length ctx.Context.ccache in
  let result =
    Obs.span ctx.Context.obs ~cat:"concretize" "concretize" (fun () ->
        Multiroot.solve ~cache:ctx.Context.ccache ~obs:ctx.Context.obs
          ~backend:ctx.Context.backend ~config:ctx.Context.config
          ~compilers:ctx.Context.compilers ~repo:ctx.Context.repo asts)
  in
  match result with
  | Error e -> Error (Multiroot.error_to_string e)
  | Ok concretes ->
      if Ccache.length ctx.Context.ccache <> before then
        Context.save_ccache ctx;
      Ok (List.combine (List.map Printer.to_string asts) concretes)

let sync_view_specs (ctx : Context.t) t concretes =
  match t.env_view with
  | None -> Ok 0
  | Some view_root ->
      let* report = Commands.view_closure ctx ~view_root concretes in
      Ok report.Ospack_views.View.mr_linked

let sync_view (ctx : Context.t) t =
  match read_lock ctx t with
  | Error e -> Error (lock_error_to_string e)
  | Ok lock -> sync_view_specs ctx t (List.map snd lock.lk_specs)

type report = {
  er_roots : (string * Concrete.t) list;
  er_report : Installer.parallel_report;
  er_linked : int;
}

let install_specs (ctx : Context.t) t ~jobs pairs =
  let* preport =
    Obs.span ctx.Context.obs ~cat:"install" "install" (fun () ->
        Installer.install_parallel ctx.Context.installer ~jobs
          (List.map snd pairs))
  in
  match preport.Installer.pr_failures with
  | [] ->
      let* linked = sync_view_specs ctx t (List.map snd pairs) in
      Ok { er_roots = pairs; er_report = preport; er_linked = linked }
  | failures -> Error (Installer.failures_to_string failures)

let install ?(jobs = 1) (ctx : Context.t) t =
  let* pairs = concretize_roots ctx t in
  (* reproducibility invariant, checked in anger on every install: when a
     valid lock already exists at this fingerprint for these roots, the
     fresh unified solve must agree with it hash-for-hash *)
  let* () =
    match read_lock ctx t with
    | Ok lock when lock.lk_roots = List.map fst pairs ->
        List.fold_left2
          (fun acc (root, fresh) (_, locked) ->
            let* () = acc in
            if Concrete.root_hash fresh = Concrete.root_hash locked then Ok ()
            else
              Error
                (Printf.sprintf
                   "lockfile invariant violated for %s: fresh solve %s vs \
                    locked %s at the same fingerprint"
                   root
                   (Concrete.root_hash fresh)
                   (Concrete.root_hash locked)))
          (Ok ()) pairs lock.lk_specs
    | Ok _ | Error _ -> Ok ()
  in
  let* () = write_lock ctx t pairs in
  install_specs ctx t ~jobs pairs

type locked_error =
  | Locked_lock of lock_error
  | Locked_failed of string

let locked_error_to_string = function
  | Locked_lock e -> lock_error_to_string e
  | Locked_failed e -> e

(* The fetch half of the split: no solving, no lock rewriting — install
   exactly the locked DAGs, or fail typed before touching the store (a
   stale or corrupt lock never yields a partial install). *)
let install_locked ?(jobs = 1) (ctx : Context.t) t =
  match read_lock ctx t with
  | Error e -> Error (Locked_lock e)
  | Ok lock -> (
      match install_specs ctx t ~jobs lock.lk_specs with
      | Ok report -> Ok report
      | Error e -> Error (Locked_failed e))

let status (ctx : Context.t) t =
  let db = Installer.database ctx.Context.installer in
  match read_lock ctx t with
  | Ok lock ->
      List.map
        (fun (root, c) ->
          (root, Database.find_by_hash db (Concrete.root_hash c) <> None))
        lock.lk_specs
  | Error _ ->
      List.map
        (fun root ->
          let installed =
            match Parser.parse root with
            | Error _ -> false
            | Ok ast -> Database.find_satisfying db ast <> []
          in
          (root, installed))
        (canonical_roots t)

(* ------------------------------------------------------------------ *)
(* Crash-consistency torture for the environment files                 *)

type torture_report = {
  et_jobs : int;
  et_barriers : int;
  et_kills : int;
  et_manifest_intact : int;
  et_lock_intact : int;
}

let torture_report_to_string r =
  Printf.sprintf
    "env torture: %d write barriers at -j%d, %d kill points — manifest \
     intact at %d, lockfile intact at %d, recovery converged at every one"
    r.et_barriers r.et_jobs r.et_kills r.et_manifest_intact r.et_lock_intact

(* Run the whole env lifecycle (create, add each root, install) against a
   fresh context; once as the reference run, once per kill, and once per
   recovery. The result is what recovery must converge to: the store
   index and the lockfile bytes. *)
let torture_sequence ?config ?backend ~jobs ~name ~view ~roots vfs =
  let ctx = Context.create ?config ?backend ~vfs () in
  let* _ = Installer.load_index ctx.Context.installer in
  let* env =
    match create ctx ~name ?view () with
    | Ok env -> Ok env
    | Error _ -> load ctx ~name
  in
  let* env =
    List.fold_left
      (fun acc root ->
        let* env = acc in
        match add ctx env root with
        | Ok env -> Ok env
        | Error _ -> Ok env (* duplicate after partial replay *))
      (Ok env) roots
  in
  let* _report = install ~jobs ctx env in
  Ok
    ( Json.to_string
        (Database.to_json (Installer.database ctx.Context.installer)),
      Result.to_option (Vfs.read_file vfs (lock_path name)) )

(* old-or-new: whatever of the file exists at the kill point must be a
   complete previous version, never a torn write *)
let intact vfs what path =
  match Vfs.read_file vfs path with
  | Error _ -> Ok false
  | Ok content when Result.is_ok (Json.of_string content) -> Ok true
  | Ok _ -> Error ("torn " ^ what)

let torture ?(jobs = 1) ?every ?config ?backend ~name ?view ~roots () =
  let run = torture_sequence ?config ?backend ~jobs ~name ~view ~roots in
  let* barriers, kills =
    Vfs.crash_sweep ?every ~world:Vfs.create ~run
      (fun (ref_db, ref_lock) _k vfs ->
        let* manifest_ok = intact vfs "manifest" (manifest_path name) in
        let* lock_ok = intact vfs "lockfile" (lock_path name) in
        (* recovery: a fresh context over the crashed filesystem must
           converge to exactly the reference store and lockfile *)
        let* db, lock =
          Result.map_error (fun e -> "recovery: " ^ e) (run vfs)
        in
        if db <> ref_db then Error "recovered index diverged"
        else if lock = None then Error "no lockfile after recovery"
        else if lock <> ref_lock then Error "recovered lockfile diverged"
        else Ok (manifest_ok, lock_ok))
  in
  let count f = List.length (List.filter f kills) in
  Ok
    {
      et_jobs = jobs;
      et_barriers = barriers;
      et_kills = List.length kills;
      et_manifest_intact = count fst;
      et_lock_intact = count snd;
    }
