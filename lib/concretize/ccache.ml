module Ast = Ospack_spec.Ast
module Printer = Ospack_spec.Printer
module Concrete = Ospack_spec.Concrete
module Repository = Ospack_package.Repository
module Package = Ospack_package.Package
module Provider_index = Ospack_package.Provider_index
module Compilers = Ospack_config.Compilers
module Config = Ospack_config.Config
module Version = Ospack_version.Version
module Sha256 = Ospack_hash.Sha256
module Hex = Ospack_hash.Hex
module Json = Ospack_json.Json
module Vfs = Ospack_vfs.Vfs
module Obs = Ospack_obs.Obs
module StrSet = Set.Make (String)
module StrMap = Map.Make (String)

(* Bump when the concretizer's semantics change: a cache produced by an
   older algorithm must not be trusted by a newer one. *)
let algorithm_version = "greedy-fixpoint-1"

(* The validation context: a base fingerprint over the inputs shared by
   every entry (algorithm+backend tag, repository name, toolchains,
   configuration — everything except package recipes), plus memoized
   per-package identity hashes and the provider index for the per-entry
   Merkle fingerprints. *)
type context = {
  cx_base : string;
  cx_repo : Repository.t;
  cx_identity : (string, string) Hashtbl.t;
  cx_providers : Provider_index.t Lazy.t;
}

(* One cached concretization with everything derived from it computed
   once, at [store] or at validation: its Merkle fingerprint and its
   rendered JSON text, which every save and export of it splices. *)
type entry = {
  e_concrete : Concrete.t;
  e_merkle : string;
  e_text : string Lazy.t;
      (* the [{spec; merkle; concrete}] object as [Json.to_string
         ~indent:2] renders it at depth 2 of a cache document *)
}

type t = {
  cc_context : context;
  cc_entries : (string, entry) Hashtbl.t;
      (* canonical abstract spec -> its concretization *)
  cc_shards : (string, entry StrMap.t) Hashtbl.t;
      (* shard name -> the entries it persists, by key *)
  cc_dirty : (string, unit) Hashtbl.t;
      (* shards whose file no longer matches memory *)
  cc_obs : Obs.t;
}

let context ?(backend = "greedy") ~repo ~compilers ~config () =
  let ctx = Sha256.init () in
  (* the backend is part of the algorithm tag: greedy and clause-solver
     entries must never cross-contaminate *)
  Sha256.feed ctx ("algorithm " ^ algorithm_version ^ "+" ^ backend ^ "\n");
  Sha256.feed ctx ("repo " ^ Repository.name repo ^ "\n");
  List.iter
    (fun tc ->
      Sha256.feed ctx
        (Printf.sprintf "compiler %s@%s cc=%s cxx=%s f77=%s fc=%s archs=%s features=%s\n"
           tc.Compilers.tc_name
           (Version.to_string tc.Compilers.tc_version)
           tc.Compilers.tc_cc tc.Compilers.tc_cxx tc.Compilers.tc_f77
           tc.Compilers.tc_fc
           (String.concat "," tc.Compilers.tc_archs)
           (String.concat "," tc.Compilers.tc_features)))
    (Compilers.all compilers);
  (* Policy functions are pure over the config, so the config's key/value
     rendering covers every policy input. *)
  List.iter
    (fun key ->
      let v = Option.value (Config.get config key) ~default:"" in
      Sha256.feed ctx (Printf.sprintf "config %s=%s\n" key v))
    (Config.keys config);
  {
    cx_base = Hex.encode (Sha256.finalize ctx);
    cx_repo = repo;
    cx_identity = Hashtbl.create 64;
    cx_providers = lazy (Provider_index.build repo);
  }

let base_fingerprint cx = cx.cx_base

let identity_hash cx name =
  match Hashtbl.find_opt cx.cx_identity name with
  | Some h -> h
  | None ->
      let h =
        match Repository.find cx.cx_repo name with
        | Some pkg ->
            let c = Sha256.init () in
            Sha256.feed c (Package.identity_string pkg);
            Hex.encode (Sha256.finalize c)
        | None -> "absent"
      in
      Hashtbl.add cx.cx_identity name h;
      h

(* The per-entry Merkle fingerprint: a hash over the identity hashes of
   exactly the packages in the entry's dependency closure, plus — for
   each virtual interface the closure uses — the identity of every
   current provider of that interface (a new, removed, or edited
   provider can change which one concretization picks, even if the
   stored DAG never contained it). Editing a recipe therefore
   invalidates only the entries whose closure (or provider set) can see
   the edit. *)
let entry_fingerprint cx concrete =
  let ctx = Sha256.init () in
  Sha256.feed ctx ("base " ^ cx.cx_base ^ "\n");
  let virtuals = ref StrSet.empty in
  List.iter
    (fun (n : Concrete.node) ->
      Sha256.feed ctx
        (Printf.sprintf "node %s %s\n" n.Concrete.name
           (identity_hash cx n.Concrete.name));
      List.iter
        (fun (v, _) -> virtuals := StrSet.add v !virtuals)
        n.Concrete.provided)
    (Concrete.nodes concrete);
  StrSet.iter
    (fun v ->
      let providers =
        Provider_index.providers (Lazy.force cx.cx_providers) v
        |> List.map (fun (e : Provider_index.entry) ->
               e.Provider_index.e_provider ^ "="
               ^ identity_hash cx e.Provider_index.e_provider)
      in
      Sha256.feed ctx
        (Printf.sprintf "virtual %s providers %s\n" v
           (String.concat "," providers)))
    !virtuals;
  Hex.encode (Sha256.finalize ctx)

let create ?(obs = Obs.disabled) ~context:cx () =
  {
    cc_context = cx;
    cc_entries = Hashtbl.create 64;
    cc_shards = Hashtbl.create 64;
    cc_dirty = Hashtbl.create 16;
    cc_obs = obs;
  }

let context_of t = t.cc_context

let key_of ast = Printer.to_string ast

(* The shard an entry persists in: the first two hex digits of the
   SHA-256 of its key, so 256 files at most, each a few entries. *)
let shard_of key = Printf.sprintf "%02x" (Char.code (Sha256.digest key).[0])

let format_version = 2

let entry_json key merkle concrete =
  Json.Obj
    [
      ("spec", Json.String key);
      ("merkle", Json.String merkle);
      ("concrete", Concrete.to_json concrete);
    ]

(* An entry's text at depth 2 of a document: raw newlines in
   [Json.to_string] output are structural (strings escape theirs), so
   re-indenting is a prefix after each one. *)
let entry_text key merkle concrete =
  Json.to_string ~indent:2 (entry_json key merkle concrete)
  |> String.split_on_char '\n'
  |> String.concat "\n    "

let make_entry key merkle concrete =
  {
    e_concrete = concrete;
    e_merkle = merkle;
    e_text = lazy (entry_text key merkle concrete);
  }

(* Insert an entry; returns its shard. *)
let add t key e =
  let s = shard_of key in
  Hashtbl.replace t.cc_entries key e;
  let shard =
    Option.value (Hashtbl.find_opt t.cc_shards s) ~default:StrMap.empty
  in
  Hashtbl.replace t.cc_shards s (StrMap.add key e shard);
  s

let mark_dirty t s = Hashtbl.replace t.cc_dirty s ()

let lookup t ast =
  let key = key_of ast in
  match Hashtbl.find_opt t.cc_entries key with
  | Some e ->
      Obs.count t.cc_obs "ccache.hits" 1;
      Some e.e_concrete
  | None ->
      Obs.count t.cc_obs "ccache.misses" 1;
      None

(* A stored entry is rendered now, for the save that follows every
   store; a loaded one only if its shard is ever rewritten. *)
let store t ast concrete =
  let key = key_of ast in
  let merkle = entry_fingerprint t.cc_context concrete in
  let text = entry_text key merkle concrete in
  let e =
    { e_concrete = concrete; e_merkle = merkle; e_text = Lazy.from_val text }
  in
  mark_dirty t (add t key e)

let length t = Hashtbl.length t.cc_entries

let sorted_entries t =
  Hashtbl.fold (fun k e acc -> (k, e) :: acc) t.cc_entries []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let to_json t =
  Json.Obj
    [
      ("format", Json.Int format_version);
      ("base", Json.String t.cc_context.cx_base);
      ( "entries",
        Json.List
          (List.map
             (fun (k, e) -> entry_json k e.e_merkle e.e_concrete)
             (sorted_entries t)) );
    ]

(* [Json.to_string ~indent:2] of a cache document holding [entries]
   (sorted by key), spliced from the memoized entry texts: a save or an
   export renders each entry at most once in the cache's lifetime. *)
let render t entries =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "{\n  \"format\": %d,\n  \"base\": %s,\n  \"entries\": "
    format_version
    (Json.to_string (Json.String t.cc_context.cx_base));
  (match entries with
  | [] -> Buffer.add_string buf "[]"
  | _ ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i (_, e) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf "\n    ";
          Buffer.add_string buf (Lazy.force e.e_text))
        entries;
      Buffer.add_string buf "\n  ]");
  Buffer.add_string buf "\n}";
  Buffer.contents buf

let to_string t = render t (sorted_entries t)

(* The one validator of persisted or imported bytes: the entries of a
   document's text that still hold under [cx], in document order, and
   how many it lost. A stored entry survives iff its recorded Merkle
   fingerprint still equals the one its concrete DAG hashes to under the
   current context (that fingerprint is the entry's from then on).
   Unparsable text loses one; a format or base mismatch loses every
   entry, counted per entry so the count always means "entries lost". *)
let decode cx text =
  let open Json in
  match of_string text with
  | Error _ -> ([], 1)
  | Ok json -> (
      let entries =
        Option.value ~default:[] (Option.bind (member "entries" json) to_list)
      in
      match
        ( Option.bind (member "format" json) get_int,
          Option.bind (member "base" json) get_string )
      with
      | Some fmt, Some base when fmt = format_version && base = cx.cx_base ->
          let kept, lost =
            List.fold_left
              (fun (kept, lost) e ->
                match
                  ( Option.bind (member "spec" e) get_string,
                    Option.bind (member "merkle" e) get_string,
                    member "concrete" e )
                with
                | Some key, Some merkle, Some cj -> (
                    match Concrete.of_json cj with
                    | Ok c when entry_fingerprint cx c = merkle ->
                        ((key, make_entry key merkle c) :: kept, lost)
                    | Ok _ | Error _ -> (kept, lost + 1))
                | _ -> (kept, lost + 1))
              ([], 0) entries
          in
          (List.rev kept, lost)
      | _ -> ([], max 1 (List.length entries)))

(* Nothing on disk holds an imported document's entries yet, so every
   shard they fill is dirty. *)
let of_string ?(obs = Obs.disabled) ~context:cx s =
  let entries, lost = decode cx s in
  let t = create ~obs ~context:cx () in
  Obs.count obs "ccache.invalidations" lost;
  List.iter (fun (key, e) -> mark_dirty t (add t key e)) entries;
  t

let shard_file dir s = dir ^ "/" ^ s ^ ".json"

(* The directory listing, swept of the [.tmp] a killed save strands, is
   the truth: no manifest, because entries are never deleted one at a
   time. A shard that lost an entry (eviction, corruption, or an entry
   filed under the wrong shard) is dirty, so the next save rewrites it
   without the loss, or removes it once it is empty, and the loss is
   counted once rather than on every load. *)
let load ?(obs = Obs.disabled) ~context:cx fs ~path =
  let t = create ~obs ~context:cx () in
  let shards =
    match Vfs.sweep_tmp fs path with
    | Error _ -> []
    | Ok names ->
        List.filter_map
          (fun n -> Filename.chop_suffix_opt ~suffix:".json" n)
          names
  in
  List.iter
    (fun s ->
      let entries, lost =
        match Vfs.read_file fs (shard_file path s) with
        | Ok text -> decode cx text
        | Error _ -> ([], 1)
      in
      let lost =
        List.fold_left
          (fun lost (key, e) ->
            if shard_of key = s then (ignore (add t key e); lost) else lost + 1)
          lost entries
      in
      if lost > 0 then begin
        Obs.count obs "ccache.invalidations" lost;
        mark_dirty t s
      end)
    shards;
  t

let save t fs ~path =
  Hashtbl.fold (fun s () acc -> s :: acc) t.cc_dirty []
  |> List.sort String.compare
  |> List.fold_left
       (fun acc s ->
         Result.bind acc (fun () ->
             let file = shard_file path s in
             let written =
               match Hashtbl.find_opt t.cc_shards s with
               | Some entries ->
                   Vfs.write_atomic fs file (render t (StrMap.bindings entries))
               | None -> (
                   match Vfs.remove fs file with
                   | Ok () | Error (Vfs.Not_found _) -> Ok ()
                   | Error e -> Error e)
             in
             Result.map (fun () -> Hashtbl.remove t.cc_dirty s) written))
       (Ok ())
  |> Result.map_error Vfs.error_to_string
