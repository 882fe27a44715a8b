type tvar = string
type cvar = string

type pval = Exact of int32 | Any | Bind of cvar | Same of cvar

type width_req = W8 | W32 | Wany

type pstep =
  | Load of { dst : tvar; ptr : tvar; width : width_req }
  | Mem_transform of {
      ops : Sem.rop list;
      ptr : tvar;
      key : pval;
      width : width_req;
    }
  | Reg_transform of { ops : Sem.rop list; reg : tvar }
  | Store of { src : tvar; ptr : tvar; width : width_req }
  | Ptr_advance of { ptr : tvar }
  | Back_edge
  | Syscall of { vector : int; al : pval; bl : pval }
  | Stack_const of pval
  | Code_const of int32

type quant = Once of pstep | Many of pstep

let pstep (Once p | Many p) = p

type guard =
  | Nonzero of cvar
  | Equals of cvar * int32
  | One_of of cvar * int32 list
  | Differ of cvar * cvar

type t = {
  name : string;
  description : string;
  steps : quant list;
  guards : guard list;
  max_gap : int;
  data : string list;
}

let make ~name ~description ?(guards = []) ?(max_gap = 24) ?(data = []) steps =
  if steps = [] then invalid_arg "Template.make: empty step list";
  { name; description; steps; guards; max_gap; data }

let check_guard consts g =
  let find v = List.assoc_opt v consts in
  match g with
  | Nonzero v -> ( match find v with Some c -> not (Int32.equal c 0l) | None -> false)
  | Equals (v, c) -> ( match find v with Some c' -> Int32.equal c c' | None -> false)
  | One_of (v, cs) -> (
      match find v with
      | Some c -> List.exists (Int32.equal c) cs
      | None -> false)
  | Differ (a, b) -> (
      match (find a, find b) with
      | Some x, Some y -> not (Int32.equal x y)
      | _, _ -> false)

let pp_pval ppf = function
  | Exact v -> Format.fprintf ppf "0x%lx" v
  | Any -> Format.pp_print_string ppf "_"
  | Bind v -> Format.fprintf ppf "?%s" v
  | Same v -> Format.fprintf ppf "=%s" v

let pp_width ppf = function
  | W8 -> Format.pp_print_string ppf ".b"
  | W32 -> Format.pp_print_string ppf ".d"
  | Wany -> ()

let pp_ops ppf ops =
  Format.pp_print_string ppf
    (String.concat "|" (List.map (Format.asprintf "%a" Sem.pp_rop) ops))

let pp_pstep ppf = function
  | Load { dst; ptr; width } ->
      Format.fprintf ppf "load%a %s <- [%s]" pp_width width dst ptr
  | Mem_transform { ops; ptr; key; width } ->
      Format.fprintf ppf "mem%a (%a) [%s], %a" pp_width width pp_ops ops ptr pp_pval key
  | Reg_transform { ops; reg } -> Format.fprintf ppf "reg (%a) %s" pp_ops ops reg
  | Store { src; ptr; width } ->
      Format.fprintf ppf "store%a [%s] <- %s" pp_width width ptr src
  | Ptr_advance { ptr } -> Format.fprintf ppf "advance %s" ptr
  | Back_edge -> Format.pp_print_string ppf "back-edge"
  | Syscall { vector; al; bl } ->
      Format.fprintf ppf "syscall 0x%x al=%a bl=%a" vector pp_pval al pp_pval bl
  | Stack_const v -> Format.fprintf ppf "stack-const %a" pp_pval v
  | Code_const v -> Format.fprintf ppf "code-const 0x%lx" v

let pp ppf t =
  Format.fprintf ppf "template %S:@ " t.name;
  List.iteri
    (fun i q ->
      if i > 0 then Format.fprintf ppf "; ";
      match q with
      | Once p -> pp_pstep ppf p
      | Many p -> Format.fprintf ppf "(%a)+" pp_pstep p)
    t.steps
