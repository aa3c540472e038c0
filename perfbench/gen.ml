(* Seeded inputs for the three workloads. Every input is a pure function
   of the seed and of public repository data; nothing here is validated
   by running the program, so a defect surfaces as a failed operation
   rather than as a silently dropped input. *)

module Package = Ospack_package.Package
module Repository = Ospack_package.Repository
module Version = Ospack_version.Version
module Universe = Ospack_repo.Universe
module Pkgs_synth = Ospack_repo.Pkgs_synth

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let take n a = Array.sub a 0 (min n (Array.length a))

(* Platform packages (vendor MPIs) conflict with the default linux target:
   they are queried on the first architecture they accept, and take no
   other forms (a compiler form could name a toolchain absent there). *)
let foreign_arch (p : Package.t) =
  let conflicted a =
    List.exists
      (fun (c : Package.conflict_decl) -> c.Package.cf_spec.Ospack_spec.Ast.arch = Some a)
      p.Package.p_conflicts
  in
  if conflicted Ospack_repo.Platforms.linux then
    List.find_opt (fun a -> not (conflicted a)) Ospack_repo.Platforms.all
  else None

let query_of p =
  match foreign_arch p with
  | Some a -> Printf.sprintf "%s =%s" p.Package.p_name a
  | None -> p.Package.p_name

(* The constraint forms of the spec grammar (paper Fig. 3), each derived
   from what the package declares so that every form is satisfiable:
   a version range capped below the newest version, a variant flipped
   off its default, another compiler, and a non-default MPI provider for
   packages that depend on the mpi interface directly. *)
let forms_of (p : Package.t) =
  let n = p.Package.p_name in
  let range =
    match List.sort Version.compare (Package.known_versions p) |> List.rev with
    | _ :: older :: _ -> [ Printf.sprintf "%s@:%s" n (Version.to_string older) ]
    | _ -> []
  in
  let variant =
    match p.Package.p_variants with
    | v :: _ ->
        let sigil = if v.Ospack_package.Variant_decl.v_default then '~' else '+' in
        [ Printf.sprintf "%s%c%s" n sigil v.Ospack_package.Variant_decl.v_name ]
    | [] -> []
  in
  let provider =
    let needs_mpi =
      List.exists
        (fun (d : Package.dep) -> d.Package.d_spec.Ospack_spec.Ast.root.name = "mpi")
        p.Package.p_dependencies
    in
    if needs_mpi then [ n ^ " ^openmpi" ] else []
  in
  if foreign_arch p <> None then [] else range @ variant @ [ n ^ " %intel" ] @ provider

(* spec-sweep: every package of the 245-package universe and a fixed
   battery of constraint forms (one form for every third package, cycling
   through the kinds), each first asked in repository order, with seeded
   repeats of earlier queries inserted at seeded places. The repeats are
   the ccache hits (reads) beside the misses (writes). The misses keep a
   fixed order because the cost of a miss grows with the cache already
   persisted: a seeded miss order would move the latency median with the
   seed rather than with the program. *)
let spec_repeats = 140

let spec_battery ~seed =
  let rng = Random.State.make [| seed; 1 |] in
  let pkgs = Repository.all_packages (Universe.repository ()) in
  let distinct =
    List.mapi
      (fun i p ->
        let form =
          match forms_of p with
          | fs when i mod 3 = 0 && fs <> [] -> [ List.nth fs (i / 3 mod List.length fs) ]
          | _ -> []
        in
        query_of p :: form)
      pkgs
    |> List.concat |> Array.of_list
  in
  let n = Array.length distinct in
  let repeats_after = Array.make n 0 in
  for _ = 1 to spec_repeats do
    let i = Random.State.int rng n in
    repeats_after.(i) <- repeats_after.(i) + 1
  done;
  Array.to_list distinct
  |> List.mapi (fun i q ->
         q :: List.init repeats_after.(i) (fun _ -> distinct.(Random.State.int rng (i + 1))))
  |> List.concat |> Array.of_list

(* install-synth and env-lifecycle: a ~1000-package synthetic universe
   (four dependency layers) layered in front of the built-in one. Its
   ~100 layer-d packages are application-like roots whose DAGs reach
   into every layer and into real packages (mpi, hdf5, python, boost). *)
let synth_count = 1000

let synth_repository () =
  let synth = Repository.create ~name:"synth" (Pkgs_synth.generate ~count:synth_count) in
  Repository.layered [ synth; Universe.repository () ]

let layer_d_roots () =
  Pkgs_synth.generate ~count:synth_count
  |> List.filter_map (fun p ->
         let n = p.Package.p_name in
         if String.length n > 5 && String.sub n 0 5 = "syn-d" then Some n else None)
  |> Array.of_list

(* install-synth installs every layer-d root once per round, in an order
   drawn from the seed and the round's index: the order decides which
   shared sub-DAGs each root finds installed, and how big the store
   already is when each root's own nodes are built. A new order in every
   round makes a run's medians and tail cover many orders, not the one
   the seed happened to draw. *)
let install_roots ~seed ~index =
  shuffle (Random.State.make [| seed; 2; index |]) (layer_d_roots ())

(* Names reachable from [roots] through declared dependencies, virtual
   interfaces counted as names: a static estimate of an environment's
   DAG size that needs no solve. *)
let closure repo roots =
  let seen = Hashtbl.create 256 in
  let rec visit n =
    if not (Hashtbl.mem seen n) then begin
      Hashtbl.replace seen n ();
      match Repository.find repo n with
      | Some p ->
          List.iter
            (fun (d : Package.dep) -> visit d.Package.d_spec.Ospack_spec.Ast.root.name)
            p.Package.p_dependencies
      | None -> ()
    end
  in
  List.iter visit roots;
  Hashtbl.length seen

(* env-lifecycle: a pick of layer-d roots for one environment, drawn from
   the seed and the round's index. Picks are redrawn until their estimated
   closure lies in a narrow band; even so, two picks of the same closure
   size differ by ~10% in the work they cause (the packages in it, not
   their count), so every round draws a new one and a run's medians
   cover many environments, not the one the seed happened to draw. *)
let env_size = 20
let env_closure = 295

let env_roots ~seed ~index =
  let rng = Random.State.make [| seed; 3; index |] in
  let repo = synth_repository () and all = layer_d_roots () in
  let rec draw () =
    let roots = Array.to_list (take env_size (shuffle rng all)) in
    let size = closure repo roots in
    if abs (size - env_closure) <= 2 then roots else draw ()
  in
  draw ()
