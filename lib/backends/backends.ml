(* The KVM instantiations of the engine functors. [Make] is applicative,
   so these module aliases denote the same types wherever they are
   spelled — [Kvm_campaign.result_row] here is
   [Campaign.Make(Backend_kvm).result_row] everywhere. The backend
   registry itself is [Ii_exploits.All_exploits.backends]. *)

module Kvm_campaign = Campaign.Make (Backend_kvm)
module Kvm_trace = Trace_driver.Make (Backend_kvm)
module Kvm_vmi = Vmi_driver.Make (Backend_kvm)
module Kvm_attribution = Attribution.Make (Backend_kvm)
