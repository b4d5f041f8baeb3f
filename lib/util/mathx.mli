(** Small exact-arithmetic helpers used throughout the analysis. *)

val gcd : int -> int -> int
(** Greatest common divisor; [gcd 0 0 = 0]. Arguments must be
    non-negative. *)

val lcm : int -> int -> int
(** Least common multiple; [lcm x 0 = 0]. Arguments must be
    non-negative.
    @raise Invalid_argument if the result exceeds [max_int]. *)

val lcm_list : int list -> int
(** LCM of a list; [lcm_list \[\] = 1]. Used for hyperperiods.
    @raise Invalid_argument on overflow, like {!lcm}. *)

val ceil_div : int -> int -> int
(** [ceil_div a b] is [ceil (a / b)] for positive [b] and non-negative
    [a]. *)

val clamp : lo:int -> hi:int -> int -> int
(** Restrict a value to [\[lo, hi\]]. *)

val clamp_f : lo:float -> hi:float -> float -> float
(** Restrict a float to [\[lo, hi\]]. *)

val sum_by : ('a -> int) -> 'a list -> int
(** [sum_by f l] is the integer sum of [f] over [l]. *)

val sum_by_f : ('a -> float) -> 'a list -> float
(** [sum_by_f f l] is the float sum of [f] over [l]. *)
