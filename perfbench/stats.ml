let sorted l = List.sort Float.compare l |> Array.of_list

let median l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean l = match l with [] -> 0. | _ -> List.fold_left ( +. ) 0. l /. float (List.length l)

(* The tail: the highest percentile on the ladder that still has at least
   ten samples beyond it (nearest-rank), never below the median; with
   under twenty samples, none has, and the tail is the slowest sample
   (p100). Returns (percentile, value). *)
let tail l =
  let a = sorted l in
  let n = Array.length a in
  let rank p = max 0 (int_of_float (Float.ceil (p /. 100. *. float n)) - 1) in
  let ok p = n - rank p - 1 >= 10 in
  match List.find_opt ok [ 99.9; 99.5; 99.; 98.; 95.; 90.; 80.; 75.; 66.; 60.; 50. ] with
  | _ when n = 0 -> (100., 0.)
  | Some p -> (p, a.(rank p))
  | None -> (100., a.(n - 1))

(* Last-quartile over first-quartile mean of a sequence in arrival order:
   1.0 when the per-item cost is flat, growing when it rises with the
   amount of work done before it. *)
let growth l =
  let a = Array.of_list l in
  let q = Array.length a / 4 in
  if q = 0 then 0.
  else
    let m i = mean (Array.to_list (Array.sub a i q)) in
    let first = m 0 in
    if first = 0. then 0. else m (Array.length a - q) /. first
