module Vfs = Ospack_vfs.Vfs
module Concrete = Ospack_spec.Concrete
module Json = Ospack_json.Json
module Binary = Ospack_buildsim.Binary

type t = { vfs : Vfs.t; root : string }

(* Typed errors so callers (the installer's fallback path, the mirror
   fleet's failover logic) can distinguish a transient I/O fault from a
   corrupt or missing entry without string matching. [error_to_string]
   renders every case with the exact legacy prose. *)
type error =
  | Cache_io of { io_op : string; io_path : string; io_cause : Vfs.error }
      (** the virtual filesystem refused an operation — transient when the
          cause is an injected fault *)
  | Cache_corrupt of { co_path : string; co_reason : string }
      (** the entry exists but cannot be trusted: unparseable JSON,
          missing fields, or a file list shorter than its recorded count *)
  | Cache_missing of string  (** no entry for the hash, on any path *)
  | Bad_prefix of { bp_prefix : string; bp_reason : string }
      (** the prefix offered for archiving is unusable *)

let error_to_string = function
  | Cache_io { io_op; io_path; io_cause } ->
      Printf.sprintf "buildcache: %s %s: %s" io_op io_path
        (Vfs.error_to_string io_cause)
  | Cache_corrupt { co_reason; _ } -> "buildcache: " ^ co_reason
  | Cache_missing hash -> Printf.sprintf "buildcache: no entry for %s" hash
  | Bad_prefix { bp_reason; _ } -> "buildcache: " ^ bp_reason

(* a fault-injected op is worth retrying or failing over to another
   mirror; everything else (corruption, absence) is not *)
let transient = function
  | Cache_io { io_cause = Vfs.Fault_injected _; _ } -> true
  | Cache_io _ | Cache_corrupt _ | Cache_missing _ | Bad_prefix _ -> false

let create vfs ~root = { vfs; root }

let root t = t.root

(* Entries live under <2-hex> shard directories keyed by hash prefix —
   the store-index layout — so a fleet-sized cache never funnels every
   entry through one directory listing. *)
let shard_of_hash hash =
  if String.length hash >= 2 then String.sub hash 0 2 else hash

let entry_path t hash =
  Printf.sprintf "%s/%s/%s.json" t.root (shard_of_hash hash) hash

let find_entry t hash =
  let path = entry_path t hash in
  if Vfs.is_file t.vfs path then Some path else None

let has t ~hash = find_entry t hash <> None

let manifest_path t = t.root ^ "/manifest.json"

let is_shard_name s =
  String.length s = 2
  && String.for_all
       (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
       s

let manifest_content shards =
  Json.to_string
    (Json.Obj
       [
         ("format", Json.Int 2);
         ( "shards",
           Json.List
             (List.map
                (fun s -> Json.String s)
                (List.sort_uniq String.compare shards)) );
       ])

(* tolerant manifest reader: a missing, stale, or corrupt manifest never
   hides entries — readers always union it with the directory listing *)
let manifest_shards t =
  match Vfs.read_file t.vfs (manifest_path t) with
  | Error _ -> []
  | Ok content -> (
      match Json.of_string content with
      | Error _ -> []
      | Ok j -> (
          match Option.bind (Json.member "shards" j) Json.to_list with
          | None -> []
          | Some items ->
              List.filter_map (fun s -> Json.get_string s) items))

let shard_dirs t names =
  List.filter
    (fun e -> is_shard_name e && Vfs.is_dir t.vfs (t.root ^ "/" ^ e))
    names

let listed_shards t =
  shard_dirs t (Result.value (Vfs.ls t.vfs t.root) ~default:[])

(* Listing is where every reader converges, so it sweeps the [.tmp]
   litter of interrupted saves. *)
let cached_hashes t =
  let listed dir = Result.value (Vfs.sweep_tmp t.vfs dir) ~default:[] in
  List.concat_map
    (fun shard ->
      List.filter_map
        (fun n ->
          if Filename.check_suffix n ".json" then
            Some (Filename.chop_suffix n ".json")
          else None)
        (listed (t.root ^ "/" ^ shard)))
    (shard_dirs t (listed t.root))
  |> List.sort_uniq String.compare

let ( let* ) = Result.bind

let io op path = function
  | Ok v -> Ok v
  | Error e -> Error (Cache_io { io_op = op; io_path = path; io_cause = e })

(* keep the root manifest in step with the live shard set; staleness is
   harmless (readers union with the listing) so this runs after the entry
   rename — the entry's durability never waits on the manifest *)
let update_manifest t shard =
  let known = manifest_shards t in
  if List.mem shard known then Ok ()
  else
    let path = manifest_path t in
    io "write" path
      (Vfs.write_atomic t.vfs path
         (manifest_content (shard :: (known @ listed_shards t))))

let archive_prefix t ~prefix =
  (* every walk entry must archive; a file we cannot read is an error,
     not a silent omission — a truncated entry would later extract
     "successfully" into a broken prefix. Directories are archived too
     so empty ones survive the round trip. *)
  let* rev_files =
    List.fold_left
      (fun acc (path, kind) ->
        let* acc = acc in
        let plen = String.length prefix + 1 in
        let rel = String.sub path plen (String.length path - plen) in
        let entry kind content =
          Json.Obj
            [
              ("rel", Json.String rel);
              ("kind", Json.String kind);
              ("content", Json.String content);
            ]
        in
        match kind with
        | Vfs.Dir -> Ok (entry "dir" "" :: acc)
        | Vfs.File ->
            let* content = io "read" path (Vfs.read_file t.vfs path) in
            Ok (entry "file" content :: acc)
        | Vfs.Symlink ->
            let* target = io "read" path (Vfs.readlink t.vfs path) in
            Ok (entry "link" target :: acc))
      (Ok []) (Vfs.walk t.vfs prefix)
  in
  Ok (List.rev rev_files)

let save t ~install_root (record : Database.record) =
  if has t ~hash:record.Database.r_hash then Ok ()
  else
    let prefix = record.Database.r_prefix in
    if not (Vfs.is_dir t.vfs prefix) then
      Error
        (Bad_prefix
           {
             bp_prefix = prefix;
             bp_reason =
               Printf.sprintf "prefix %s of %s is not a directory" prefix
                 record.Database.r_hash;
           })
    else
      let* files = archive_prefix t ~prefix in
      if files = [] then
        Error
          (Bad_prefix
             {
               bp_prefix = prefix;
               bp_reason =
                 Printf.sprintf "refusing to archive empty prefix %s" prefix;
             })
      else
        let entry =
          Json.Obj
            [
              ("format", Json.Int 1);
              ("install_root", Json.String install_root);
              ("prefix", Json.String prefix);
              ("spec", Concrete.to_json record.Database.r_spec);
              ("file_count", Json.Int (List.length files));
              ("files", Json.List files);
            ]
        in
        let hash = record.Database.r_hash in
        let shard = shard_of_hash hash in
        let shard_dir = t.root ^ "/" ^ shard in
        let* () = io "mkdir" shard_dir (Vfs.mkdir_p t.vfs shard_dir) in
        (* a kill at any barrier leaves either no entry or a complete
           one, never a truncated JSON that would poison later extracts *)
        let path = entry_path t hash in
        let* () =
          io "write" path (Vfs.write_atomic t.vfs path (Json.to_string entry))
        in
        update_manifest t shard

(* Textual relocation, path-token-boundary-aware: an occurrence of
   [from_root] rewrites only when it is not embedded inside a longer
   path token on either side — [/opt/spack/bin] relocates, the distinct
   root [/opt/spack2] and the mid-path [/usr/opt/spack] do not.
   Boundary = any character outside the path-token alphabet
   [A-Za-z0-9._+-] (or the text edge); '/' is a boundary, so path
   continuations still match. [relocate_many] applies several
   replacements in one left-to-right scan (longest source first, no
   chaining), which is what splicing needs: per-dependency prefix swaps
   must win over the blanket root swap. *)
let is_token_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '.' || c = '_' || c = '+' || c = '-'

let relocate_many ~pairs text =
  let pairs =
    List.filter (fun (f, r) -> f <> "" && f <> r) pairs
    |> List.sort (fun (a, _) (b, _) ->
           compare (String.length b) (String.length a))
  in
  if pairs = [] then text
  else begin
    let buf = Buffer.create (String.length text) in
    let n = String.length text in
    let matches_at i (from_root, _) =
      let flen = String.length from_root in
      i + flen <= n
      && String.sub text i flen = from_root
      && (i = 0 || not (is_token_char text.[i - 1]))
      && (i + flen = n || not (is_token_char text.[i + flen]))
    in
    let rec go i =
      if i >= n then ()
      else
        match List.find_opt (matches_at i) pairs with
        | Some (from_root, to_root) ->
            Buffer.add_string buf to_root;
            go (i + String.length from_root)
        | None ->
            Buffer.add_char buf text.[i];
            go (i + 1)
    in
    go 0;
    Buffer.contents buf
  end

let relocate ~from_root ~to_root text =
  relocate_many ~pairs:[ (from_root, to_root) ] text

let corrupt path reason = Error (Cache_corrupt { co_path = path; co_reason = reason })

type parsed_entry = {
  pe_path : string;
  pe_install_root : string;
  pe_spec : Concrete.t;
  pe_files : (string * string * string) list;  (** rel, kind, content *)
}

let load_entry t ~hash =
  match find_entry t hash with
  | None -> Error (Cache_missing hash)
  | Some path ->
      let* content = io "read" path (Vfs.read_file t.vfs path) in
      let* entry =
        match Json.of_string content with
        | Ok j -> Ok j
        | Error e -> corrupt path ("entry " ^ hash ^ ": " ^ e)
      in
      let* from_root =
        match Option.bind (Json.member "install_root" entry) Json.get_string with
        | Some r -> Ok r
        | None -> corrupt path "entry missing install_root"
      in
      let* spec =
        match Json.member "spec" entry with
        | Some sj -> (
            match Concrete.of_json sj with
            | Ok s -> Ok s
            | Error e -> corrupt path e)
        | None -> corrupt path "entry missing spec"
      in
      let* items =
        match Option.bind (Json.member "files" entry) Json.to_list with
        | Some items -> Ok items
        | None -> corrupt path "entry missing files"
      in
      (* completeness guard: an entry whose file list does not match its
         recorded count is truncated (partial write, hand-editing) and
         must not extract into a plausible-looking but incomplete
         prefix *)
      let* () =
        match Option.bind (Json.member "file_count" entry) Json.get_int with
        | None -> corrupt path "entry missing file_count"
        | Some expected when expected = List.length items -> Ok ()
        | Some expected ->
            corrupt path
              (Printf.sprintf
                 "truncated entry %s: %d files listed, %d expected" hash
                 (List.length items) expected)
      in
      let* rev_files =
        List.fold_left
          (fun acc item ->
            let* acc = acc in
            let get key =
              match Option.bind (Json.member key item) Json.get_string with
              | Some v -> Ok v
              | None -> corrupt path "malformed file entry"
            in
            let* rel = get "rel" in
            let* kind = get "kind" in
            let* content = get "content" in
            match kind with
            | "dir" | "file" | "link" -> Ok ((rel, kind, content) :: acc)
            | other -> corrupt path ("unknown entry kind " ^ other))
          (Ok []) items
      in
      Ok
        {
          pe_path = path;
          pe_install_root = from_root;
          pe_spec = spec;
          pe_files = List.rev rev_files;
        }

let entry_spec t ~hash =
  let* pe = load_entry t ~hash in
  Ok pe.pe_spec

(* the on-the-wire size of an entry — what a mirror transfer costs *)
let entry_size t ~hash =
  match find_entry t hash with
  | None -> None
  | Some path -> (
      match Vfs.read_file t.vfs path with
      | Ok content -> Some (String.length content)
      | Error _ -> None)

(* Extraction never trusts a pre-existing destination: a prefix holding
   any path the entry does not list came from a different entry (or a
   partial build) and its orphans would keep resolving under the loader.
   A mismatched prefix is cleared wholesale before materializing; a
   prefix that is a subset of the entry is overwritten in place (the
   stale-symlink re-extract path below). *)
let reconcile_prefix t ~prefix files =
  if not (Vfs.is_dir t.vfs prefix) then Ok ()
  else
    let expected = List.map (fun (rel, _, _) -> rel) files in
    let plen = String.length prefix + 1 in
    let stale =
      List.exists
        (fun (path, _) ->
          let rel = String.sub path plen (String.length path - plen) in
          not (List.mem rel expected))
        (Vfs.walk t.vfs prefix)
    in
    if stale then io "remove" prefix (Vfs.remove t.vfs ~recursive:true prefix)
    else Ok ()

let materialize t ~prefix ~reloc_file ~reloc_link files =
  List.fold_left
    (fun acc (rel, kind, content) ->
      let* () = acc in
      let dest = prefix ^ "/" ^ rel in
      match kind with
      | "dir" -> io "mkdir" dest (Vfs.mkdir_p t.vfs dest)
      | "file" -> io "write" dest (Vfs.write_file t.vfs dest (reloc_file rel content))
      | _ -> (
          let target = reloc_link content in
          let recreate () =
            let* () = io "remove" dest (Vfs.remove t.vfs ~recursive:true dest) in
            io "symlink" dest (Vfs.symlink t.vfs ~target ~link:dest)
          in
          match Vfs.symlink t.vfs ~target ~link:dest with
          | Ok () -> Ok ()
          | Error (Vfs.Already_exists _) -> (
              (* re-extract: keep an identical link, but never a stale one
                 whose target (e.g. under a different install root)
                 changed, and never a non-link squatting on the path *)
              match Vfs.kind_of t.vfs dest with
              | Some Vfs.Symlink -> (
                  match Vfs.readlink t.vfs dest with
                  | Ok existing when existing = target -> Ok ()
                  | Ok _ | Error _ -> recreate ())
              | _ -> recreate ())
          | Error e ->
              Error (Cache_io { io_op = "symlink"; io_path = dest; io_cause = e })))
    (Ok ()) files

let extract t ~hash ~install_root ~prefix =
  let* pe = load_entry t ~hash in
  let* () = reconcile_prefix t ~prefix pe.pe_files in
  let reloc = relocate ~from_root:pe.pe_install_root ~to_root:install_root in
  let* () =
    materialize t ~prefix
      ~reloc_file:(fun _rel content -> reloc content)
      ~reloc_link:reloc pe.pe_files
  in
  Ok pe.pe_spec

(* ------------------------------------------------------------------ *)
(* Splicing (spack splice): rewire a cached binary onto a different
   dependency's installed prefix without rebuilding.                   *)

(* Build the spliced DAG: the replacement's nodes override the original's
   same-named nodes (and bring any new transitive dependencies along);
   [Concrete.make] re-validates edges and acyclicity, [subspec] prunes
   nodes the new root no longer reaches, and — because a node's DAG hash
   covers its dependencies' hashes — every node above the replacement
   recomputes its hash automatically. Returns the spliced spec and the
   replacement's root package name. *)
let splice_spec ~orig ~replacement =
  let dep = Concrete.root replacement in
  match Concrete.node orig dep with
  | None ->
      Error
        (Printf.sprintf "splice: %s does not depend on %s"
           (Concrete.root orig) dep)
  | Some _ when Concrete.root orig = dep ->
      Error
        (Printf.sprintf "splice: cannot replace the root package %s itself"
           dep)
  | Some _ ->
      if Concrete.dag_hash orig dep = Concrete.root_hash replacement then
        Error
          (Printf.sprintf
             "splice: replacement %s/%s is already the installed dependency"
             dep
             (Concrete.root_hash replacement))
      else
        let replaced name = Concrete.node replacement name <> None in
        let merged =
          List.filter (fun n -> not (replaced n.Concrete.name))
            (Concrete.nodes orig)
          @ Concrete.nodes replacement
        in
        let* spliced =
          match Concrete.make ~root:(Concrete.root orig) merged with
          | Ok s -> Ok s
          | Error e ->
              Error
                (Format.asprintf "splice: invalid spliced spec: %a"
                   Concrete.pp_validation_error e)
        in
        Ok (Concrete.subspec spliced (Concrete.root orig), dep)

(* does [path] live at or under [prefix], on a path-component boundary? *)
let under ~prefix path =
  let plen = String.length prefix in
  String.length path >= plen
  && String.sub path 0 plen = prefix
  && (String.length path = plen || path.[plen] = '/')

let swap_prefix pairs path =
  match List.find_opt (fun (old_p, _) -> under ~prefix:old_p path) pairs with
  | Some (old_p, new_p) ->
      new_p ^ String.sub path (String.length old_p)
               (String.length path - String.length old_p)
  | None -> path

(* Materialize a cached entry into [prefix] with its dependency prefixes
   rewired through [prefix_map] (old installed prefix -> new installed
   prefix), on top of the usual root relocation. Files that parse as
   simulated ELF objects get a structured rewrite — each RPATH entry is
   swapped on exact prefix-component boundaries, the paper's §3.5
   relocation machinery doing new work — and everything else goes through
   the boundary-aware textual pass. Returns the number of binaries whose
   RPATHs changed. *)
let splice t ~hash ~install_root ~prefix ~prefix_map =
  let* pe = load_entry t ~hash in
  let* () = reconcile_prefix t ~prefix pe.pe_files in
  (* two passes: the blanket root relocation first (bringing the entry
     into the target store's coordinates — identity when the roots
     match), then the per-dependency prefix swaps, which are expressed in
     those target coordinates. New prefixes embed new DAG hashes, so the
     second pass can never re-match its own output. *)
  let base = relocate ~from_root:pe.pe_install_root ~to_root:install_root in
  let specific = relocate_many ~pairs:prefix_map in
  let textual content = specific (base content) in
  let rewired = ref 0 in
  let reloc_file _rel content =
    match Binary.parse content with
    | Error _ -> textual content
    | Ok bin ->
        let changed = ref false in
        let bin' =
          Binary.map_rpaths
            (fun rp ->
              let rp =
                swap_prefix [ (pe.pe_install_root, install_root) ] rp
              in
              let rp' = swap_prefix prefix_map rp in
              if rp' <> rp then changed := true;
              rp')
            bin
        in
        if !changed then incr rewired;
        Binary.serialize bin'
  in
  let* () = materialize t ~prefix ~reloc_file ~reloc_link:textual pe.pe_files in
  Ok !rewired
