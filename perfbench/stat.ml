(* Sample statistics for the reported metrics. *)

let sorted samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  a

let median samples =
  let a = sorted samples in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile of an ascending array. *)
let rank_index n p =
  max 0 (min (n - 1) (int_of_float (ceil (p /. 100. *. float_of_int n)) - 1))

(* The tail percentile: the highest whole percentile that leaves at
   least [beyond] samples strictly above its rank. With fewer than
   [2 * beyond] samples no such percentile above the median exists, and
   the maximum is reported as p100. Returns (percentile, value, sample
   count). *)
let tail ?(beyond = 10) samples =
  let a = sorted samples in
  let n = Array.length a in
  if n = 0 then (100, nan, 0)
  else if n < 2 * beyond then (100, a.(n - 1), n)
  else begin
    let p = ref 99 in
    while n - 1 - rank_index n (float_of_int !p) < beyond do decr p done;
    (!p, a.(rank_index n (float_of_int !p)), n)
  end

(* [tail] over consecutive windows of about [window] samples, in the
   order given, and the median of the window tails: an isolated stall
   then moves one window rather than the figure. Returns (lowest and
   highest window percentile, median value, number of windows). *)
let windowed_tail ~window samples =
  let a = Array.of_list samples in
  let n = Array.length a in
  let k = max 1 (n / window) in
  let tails =
    List.init k (fun j ->
        let lo = j * n / k and hi = (j + 1) * n / k in
        tail (Array.to_list (Array.sub a lo (hi - lo)))) in
  let ps = List.map (fun (p, _, _) -> p) tails in
  ( List.fold_left min 100 ps,
    List.fold_left max 0 ps,
    median (List.map (fun (_, v, _) -> v) tails),
    k )

let sum = List.fold_left ( +. ) 0.

let ns_to_ms ns = Int64.to_float ns /. 1e6

let ns_to_s ns = Int64.to_float ns /. 1e9
