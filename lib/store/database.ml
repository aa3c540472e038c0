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

let key r = (Concrete.root r.r_spec, r.r_hash)
let shard_of_hash hash = String.sub hash 0 2

type t = {
  by_hash : (string, record) Hashtbl.t;
  mutable shards : record Kmap.t Smap.t;
      (* the same records grouped by [shard_of_hash], kept in step by
         [add] and [remove] so a shard renders without a scan of the
         store; a group that empties is dropped *)
}

let create () = { by_hash = Hashtbl.create 64; shards = Smap.empty }

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
    | None -> record
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

let dependents_of t hash =
  all t
  |> List.filter (fun r ->
         r.r_hash <> hash
         && List.exists
              (fun n ->
                n.Concrete.name <> Concrete.root r.r_spec
                && Concrete.dag_hash r.r_spec n.Concrete.name = hash)
              (Concrete.nodes r.r_spec))

module Json = Ospack_json.Json

let record_to_json r =
  Json.Obj
    [
      ("spec", Concrete.to_json r.r_spec);
      ("hash", Json.String r.r_hash);
      ("prefix", Json.String r.r_prefix);
      ("explicit", Json.Bool r.r_explicit);
      ("external", Json.Bool r.r_external);
      ("build_seconds", Json.Float r.r_build_seconds);
    ]

let to_json t =
  Json.Obj
    [
      ("format", Json.Int 1);
      ("records", Json.List (List.map record_to_json (all t)));
    ]

let ( let* ) = Result.bind

let record_of_json j =
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
  let* spec =
    match Json.member "spec" j with
    | Some sj -> Concrete.of_json sj
    | None -> Error "db index: missing record spec"
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
    {
      r_spec = spec;
      r_hash = hash;
      r_prefix = prefix;
      r_explicit = explicit;
      r_external = external_;
      r_build_seconds = build_seconds;
    }

let of_json j =
  match Option.bind (Json.member "records" j) Json.to_list with
  | None -> Error "db index: missing records"
  | Some items ->
      let t = create () in
      let* () =
        List.fold_left
          (fun acc item ->
            let* () = acc in
            let* r = record_of_json item in
            add t r;
            Ok ())
          (Ok ()) items
      in
      Ok t

let remove t hash =
  match find_by_hash t hash with
  | None -> Error (Printf.sprintf "no installed spec with hash %s" hash)
  | Some record -> (
      match dependents_of t hash with
      | [] ->
          Hashtbl.remove t.by_hash hash;
          update_shard t hash (Kmap.remove (key record));
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
