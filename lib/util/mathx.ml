let rec gcd a b =
  assert (a >= 0 && b >= 0);
  if b = 0 then a else gcd b (a mod b)

let lcm a b =
  if a = 0 || b = 0 then 0
  else begin
    let q = a / gcd a b in
    if q > max_int / b then invalid_arg "Mathx.lcm: overflow";
    q * b
  end

let lcm_list l = List.fold_left lcm 1 l

let ceil_div a b =
  assert (b > 0 && a >= 0);
  (a + b - 1) / b

let clamp ~lo ~hi x = if x < lo then lo else if x > hi then hi else x

let clamp_f ~lo ~hi x = if x < lo then lo else if x > hi then hi else x

let sum_by f l = List.fold_left (fun acc x -> acc + f x) 0 l

let sum_by_f f l = List.fold_left (fun acc x -> acc +. f x) 0. l
