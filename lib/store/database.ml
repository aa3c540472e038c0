module Concrete = Ospack_spec.Concrete
module Ast = Ospack_spec.Ast

type record = {
  r_spec : Concrete.t;
  r_hash : string;
  r_prefix : string;
  r_explicit : bool;
  r_external : bool;
  r_build_seconds : float;
}

(* Records sort by package name, then hash: the order of [all] and of
   every index shard. *)
module Key = struct
  type t = string * string

  let compare (n1, h1) (n2, h2) =
    match String.compare n1 n2 with 0 -> String.compare h1 h2 | c -> c
end

module Kmap = Map.Make (Key)
module Smap = Map.Make (String)
module Sset = Set.Make (String)

let key r = (Concrete.root r.r_spec, r.r_hash)
let shard_of_hash hash = String.sub hash 0 2

type t = {
  by_hash : (string, record) Hashtbl.t;
  mutable shards : record Kmap.t Smap.t;
      (* the same records grouped by [shard_of_hash], kept in step by
         [add] and [remove] so a shard renders without a scan of the
         store; a group that empties is dropped *)
  revdeps : (string, Sset.t) Hashtbl.t;
      (* dependency hash -> hashes of the records that depend on it
         directly, kept in step by [add] and [remove] *)
}

let create () =
  { by_hash = Hashtbl.create 64; shards = Smap.empty; revdeps = Hashtbl.create 64 }

let dep_hashes r =
  List.map
    (Concrete.dag_hash r.r_spec)
    (Concrete.root_node r.r_spec).Concrete.deps

let direct_dependents t hash =
  Option.value (Hashtbl.find_opt t.revdeps hash) ~default:Sset.empty

let update_revdeps t r f =
  List.iter
    (fun dep ->
      let s = f r.r_hash (direct_dependents t dep) in
      if Sset.is_empty s then Hashtbl.remove t.revdeps dep
      else Hashtbl.replace t.revdeps dep s)
    (dep_hashes r)

let update_shard t hash f =
  t.shards <-
    Smap.update (shard_of_hash hash)
      (fun group ->
        let group = f (Option.value group ~default:Kmap.empty) in
        if Kmap.is_empty group then None else Some group)
      t.shards

let add t record =
  let record =
    match Hashtbl.find_opt t.by_hash record.r_hash with
    | Some existing ->
        update_shard t existing.r_hash (Kmap.remove (key existing));
        { record with r_explicit = record.r_explicit || existing.r_explicit }
    | None ->
        update_revdeps t record Sset.add;
        record
  in
  Hashtbl.replace t.by_hash record.r_hash record;
  update_shard t record.r_hash (Kmap.add (key record) record)

let find_by_hash t hash = Hashtbl.find_opt t.by_hash hash

let all t =
  Hashtbl.fold (fun _ r acc -> r :: acc) t.by_hash []
  |> List.sort (fun a b -> Key.compare (key a) (key b))

let shard t k =
  match Smap.find_opt k t.shards with
  | None -> []
  | Some group -> List.map snd (Kmap.bindings group)

let shards t = List.map fst (Smap.bindings t.shards)

let find_by_name t name =
  all t |> List.filter (fun r -> Concrete.root r.r_spec = name)

let find_satisfying t query =
  all t |> List.filter (fun r -> Concrete.satisfies r.r_spec query)

let count t = Hashtbl.length t.by_hash

(* Every record's dependencies are records too (the installer adds
   dependencies first, and the index loader refuses a dangling dependency
   hash), so the records whose DAG holds [hash] below the root are the
   ones a walk up [revdeps] reaches. *)
let dependents_of t hash =
  let rec walk seen = function
    | [] -> seen
    | h :: rest ->
        let fresh = Sset.diff (direct_dependents t h) seen in
        walk (Sset.union seen fresh) (Sset.elements fresh @ rest)
  in
  Sset.fold
    (fun h acc ->
      match find_by_hash t h with Some r -> r :: acc | None -> acc)
    (walk Sset.empty [ hash ])
    []
  |> List.sort (fun a b -> Key.compare (key a) (key b))

(* Repeatedly take the first implicit record, in [all]'s order, that no
   record left depends on; removing it can only free its dependencies. *)
let collectable t =
  let remaining = Hashtbl.create 64 in
  let release ready dep =
    match find_by_hash t dep with
    | Some d when not d.r_explicit ->
        let left =
          Option.value (Hashtbl.find_opt remaining dep)
            ~default:(Sset.cardinal (direct_dependents t dep))
          - 1
        in
        Hashtbl.replace remaining dep left;
        if left = 0 then Kmap.add (key d) d ready else ready
    | _ -> ready
  in
  let rec go ready acc =
    match Kmap.min_binding_opt ready with
    | None -> List.rev acc
    | Some (k, r) ->
        go (List.fold_left release (Kmap.remove k ready) (dep_hashes r)) (r :: acc)
  in
  go
    (Hashtbl.fold
       (fun _ r ready ->
         if (not r.r_explicit) && Sset.is_empty (direct_dependents t r.r_hash)
         then Kmap.add (key r) r ready
         else ready)
       t.by_hash Kmap.empty)
    []

module Json = Ospack_json.Json

(* A record in node form: its own node, with its dependencies given by
   DAG hash; the sub-DAG below it lives in the records of those hashes. *)
let record_to_json r =
  Json.Obj
    [
      ("node", Concrete.entry_to_json r.r_spec (Concrete.root r.r_spec));
      ("hash", Json.String r.r_hash);
      ("prefix", Json.String r.r_prefix);
      ("explicit", Json.Bool r.r_explicit);
      ("external", Json.Bool r.r_external);
      ("build_seconds", Json.Float r.r_build_seconds);
    ]

let to_json t =
  Json.Obj
    [
      ("format", Json.Int 3);
      ("records", Json.List (List.map record_to_json (all t)));
    ]

let ( let* ) = Result.bind

(* a record's fields, with its spec still to be rebuilt from the table *)
let parse_record j =
  let str key =
    match Option.bind (Json.member key j) Json.get_string with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "db index: missing record field %s" key)
  in
  let boolean key =
    match Option.bind (Json.member key j) Json.get_bool with
    | Some b -> Ok b
    | None -> Error (Printf.sprintf "db index: missing record field %s" key)
  in
  let* entry =
    match Json.member "node" j with
    | Some nj -> Concrete.entry_of_json nj
    | None -> Error "db index: missing record node"
  in
  let* hash = str "hash" in
  let* prefix = str "prefix" in
  let* explicit = boolean "explicit" in
  let* external_ = boolean "external" in
  let build_seconds =
    match Json.member "build_seconds" j with
    | Some (Json.Float f) -> f
    | Some (Json.Int i) -> float_of_int i
    | _ -> 0.0
  in
  Ok
    ( hash,
      entry,
      fun spec ->
        {
          r_spec = spec;
          r_hash = hash;
          r_prefix = prefix;
          r_explicit = explicit;
          r_external = external_;
          r_build_seconds = build_seconds;
        } )

let records_of_json items =
  let* parsed =
    List.fold_left
      (fun acc (tag, j) ->
        let* acc = acc in
        match parse_record j with
        | Ok p -> Ok ((tag, p) :: acc)
        | Error e -> Error (tag, e))
      (Ok []) items
    |> Result.map List.rev
  in
  let table = Hashtbl.create (List.length parsed) in
  List.iter
    (fun (tag, (hash, entry, _)) -> Hashtbl.replace table hash (tag, entry))
    parsed;
  let find hash = Option.map snd (Hashtbl.find_opt table hash) in
  let memo = Hashtbl.create (List.length parsed) in
  List.fold_left
    (fun acc (tag, (hash, _, finish)) ->
      let* acc = acc in
      match Concrete.of_table ~find memo hash with
      | Ok spec -> Ok (finish spec :: acc)
      | Error (at, why) ->
          (* blame the record at fault, wherever the walk found it *)
          Error
            ( (match Hashtbl.find_opt table at with Some (t, _) -> t | None -> tag),
              why ))
    (Ok []) parsed
  |> Result.map List.rev

let remove t hash =
  match find_by_hash t hash with
  | None -> Error (Printf.sprintf "no installed spec with hash %s" hash)
  | Some record -> (
      match dependents_of t hash with
      | [] ->
          Hashtbl.remove t.by_hash hash;
          update_shard t hash (Kmap.remove (key record));
          update_revdeps t record Sset.remove;
          Ok record
      | deps ->
          Error
            (Printf.sprintf "%s/%s is still needed by: %s"
               (Concrete.root record.r_spec)
               hash
               (String.concat ", "
                  (List.map
                     (fun d ->
                       Printf.sprintf "%s/%s" (Concrete.root d.r_spec) d.r_hash)
                     deps))))
