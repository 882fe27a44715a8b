module S = Set.Make (Int32)

(* [In s] = exactly the values in [s]; [Ex s] = every int32 except [s].
   [Ex S.empty] is top.  The representation is closed under meet. *)
type t = In of S.t | Ex of S.t

let any = Ex S.empty
let none = In S.empty
let singleton c = In (S.singleton c)
let of_list cs = In (S.of_list cs)
let exclude c = Ex (S.singleton c)

let meet a b =
  match (a, b) with
  | In x, In y -> In (S.inter x y)
  | In x, Ex y | Ex y, In x -> In (S.diff x y)
  | Ex x, Ex y -> Ex (S.union x y)

let is_empty = function In s -> S.is_empty s | Ex _ -> false

let is_singleton = function
  | In s when S.cardinal s = 1 -> Some (S.choose s)
  | In _ | Ex _ -> None

let subset a b =
  match (a, b) with
  | In x, In y -> S.subset x y
  | In x, Ex y -> S.disjoint x y
  | Ex _, In _ -> false (* a co-finite set is never inside a finite one *)
  | Ex x, Ex y -> S.subset y x

(* 2^32: the size of the int32 universe, for the Ex/Ex emptiness test *)
let universe = 4_294_967_296

let disjoint a b =
  match (a, b) with
  | In x, In y -> S.disjoint x y
  | In x, Ex y | Ex y, In x -> S.subset x y
  | Ex x, Ex y ->
      (* the intersection is the complement of [x ∪ y]: empty exactly
         when the exclusions cover the whole universe.  The cardinality
         guard keeps the union allocation off every realistic
         (small-exclusion) call. *)
      S.cardinal x + S.cardinal y >= universe
      && S.cardinal (S.union x y) = universe
