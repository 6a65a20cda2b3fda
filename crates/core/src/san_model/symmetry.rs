//! VM-rotation symmetry of the composed SAN model.
//!
//! When every VM sub-model is identical (same VCPU count, weight and
//! workload), cyclically relabeling the VMs maps the model onto itself:
//! the paper's metamorphic rotation oracle exploits exactly this
//! invariance. This module materializes the rotation group as concrete
//! permutations of the flat marking vector so the verifier can quotient
//! its state space by it.
//!
//! A rotation by `s` maps VM `v` to `(v + s) % V` and, because the VMs
//! are identical (each with `k` VCPUs), VCPU `g` to `(g + s·k) % n`.
//! Most places simply move to the rotated entity's slot; the id-valued
//! places need their *values* remapped as well:
//!
//! * `pcpus[p]` (VCPU id + 1) — position fixed, value remapped;
//! * `lock_holder` (VCPU id + 1) — position rotated *and* value remapped;
//! * `vcpu.pcpu` (PCPU id + 1) — position rotated, value unchanged
//!   (PCPUs are not relabeled).
//!
//! The hypervisor places (`clock`, `halt`, `tick_expire`, `tick_sched`)
//! are fixed points.

use crate::config::SystemConfig;
use crate::san_model::layout::Layout;

/// One cyclic VM relabeling, compiled to a marking-vector permutation.
#[derive(Debug, Clone)]
pub struct MarkingRotation {
    /// VM shift: VM `v` maps to `(v + vm_shift) % num_vms`.
    pub vm_shift: usize,
    /// VCPU shift (`vm_shift · vcpus_per_vm`): VCPU `g` maps to
    /// `(g + vcpu_shift) % num_vcpus`.
    pub vcpu_shift: usize,
    /// Total VMs (modulus of the VM action).
    pub num_vms: usize,
    /// Total VCPUs (modulus of the VCPU action).
    pub num_vcpus: usize,
    /// `dst[i] = src[perm[i]]`.
    perm: Vec<usize>,
    /// Destination indices holding a VCPU id **plus one** (0 = none),
    /// whose values must be remapped after permuting.
    vcpu_valued: Vec<usize>,
}

impl MarkingRotation {
    /// Applies the rotation to a flat marking snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `src` is shorter than the model this rotation was built
    /// for.
    #[must_use]
    pub fn apply(&self, src: &[i64]) -> Vec<i64> {
        let mut dst: Vec<i64> = self.perm.iter().map(|&j| src[j]).collect();
        for &i in &self.vcpu_valued {
            let t = dst[i];
            if t > 0 {
                dst[i] = self.rotate_vcpu_id(t);
            }
        }
        dst
    }

    /// Remaps a VCPU id **plus one** token (`t > 0`) under the rotation.
    fn rotate_vcpu_id(&self, t: i64) -> i64 {
        ((t as usize - 1 + self.vcpu_shift) % self.num_vcpus) as i64 + 1
    }
}

/// The non-trivial cyclic VM rotations of `config`'s model, as marking
/// permutations over `num_places` places.
///
/// Returns an empty vector — no symmetry to exploit — unless the model is
/// static (no admission places: retiring VM 0 but not VM 1 breaks the
/// symmetry), has at least two VMs, and every VM sub-model is identical.
#[must_use]
pub fn vm_rotations(
    config: &SystemConfig,
    layout: &Layout,
    num_places: usize,
) -> Vec<MarkingRotation> {
    let vms = config.vms();
    let num_vms = vms.len();
    if layout.dyn_vms.is_some() || num_vms < 2 || vms.iter().any(|v| *v != vms[0]) {
        return Vec::new();
    }
    let k = vms[0].vcpus;
    let num_vcpus = layout.vcpus.len();
    (1..num_vms)
        .map(|vm_shift| {
            let mut perm: Vec<usize> = (0..num_places).collect();
            for (g, src) in layout.vcpus.iter().enumerate() {
                let dst = &layout.vcpus[(g + vm_shift * k) % num_vcpus];
                for (d, s) in [
                    (dst.status, src.status),
                    (dst.remaining_load, src.remaining_load),
                    (dst.sync_point, src.sync_point),
                    (dst.timeslice, src.timeslice),
                    (dst.last_in, src.last_in),
                    (dst.pcpu, src.pcpu),
                    (dst.tick, src.tick),
                    (dst.spinning, src.spinning),
                ] {
                    perm[d.index()] = s.index();
                }
            }
            for (v, src) in layout.vms.iter().enumerate() {
                let dst = &layout.vms[(v + vm_shift) % num_vms];
                for (d, s) in [
                    (dst.blocked, src.blocked),
                    (dst.ready_count, src.ready_count),
                    (dst.wl_pending, src.wl_pending),
                    (dst.wl_load, src.wl_load),
                    (dst.wl_sync, src.wl_sync),
                    (dst.window, src.window),
                    (dst.tick_unblock, src.tick_unblock),
                    (dst.lock_holder, src.lock_holder),
                    (dst.generated, src.generated),
                ] {
                    perm[d.index()] = s.index();
                }
            }
            let vcpu_valued = layout
                .pcpus
                .iter()
                .chain(layout.vms.iter().map(|p| &p.lock_holder))
                .map(|p| p.index())
                .collect();
            MarkingRotation {
                vm_shift,
                vcpu_shift: vm_shift * k,
                num_vms,
                num_vcpus,
                perm,
                vcpu_valued,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SystemConfig, VmSpec, WorkloadSpec};
    use crate::san_model::build_analysis_model;
    use crate::sched::PolicyKind;

    fn identical_vms(num_vms: usize, vcpus: usize) -> SystemConfig {
        let mut b = SystemConfig::builder().pcpus(2);
        for _ in 0..num_vms {
            b = b.vm(vcpus);
        }
        b.build().unwrap()
    }

    fn rotations_of(
        config: &SystemConfig,
    ) -> (crate::san_model::AnalysisModel, Vec<MarkingRotation>) {
        let am = build_analysis_model(config, PolicyKind::RoundRobin.create()).unwrap();
        let n = am.model.initial_marking().len();
        let rots = vm_rotations(config, &am.layout, n);
        (am, rots)
    }

    #[test]
    fn identical_vms_yield_one_rotation_per_shift() {
        let config = identical_vms(3, 2);
        let (_, rots) = rotations_of(&config);
        assert_eq!(rots.len(), 2, "shifts 1 and 2 of a 3-cycle");
        assert_eq!(rots[0].vcpu_shift, 2);
        assert_eq!(rots[1].vcpu_shift, 4);
    }

    #[test]
    fn heterogeneous_vms_yield_none() {
        let config = SystemConfig::builder()
            .pcpus(2)
            .vm(2)
            .vm(1)
            .build()
            .unwrap();
        let (_, rots) = rotations_of(&config);
        assert!(rots.is_empty(), "different VCPU counts break the symmetry");

        let config = SystemConfig::builder()
            .pcpus(2)
            .vm_spec(VmSpec::new(1).with_weight(2))
            .vm_spec(VmSpec::new(1))
            .build()
            .unwrap();
        let (_, rots) = rotations_of(&config);
        assert!(rots.is_empty(), "different weights break the symmetry");
    }

    #[test]
    fn rotation_composes_to_identity() {
        let config = identical_vms(2, 2);
        let (am, rots) = rotations_of(&config);
        assert_eq!(rots.len(), 1);
        // Perturb the initial marking so the test sees real movement:
        // VCPU 0 BUSY on PCPU 1, VM 0 holding its lock via VCPU 1.
        let mut m = am.model.initial_marking().as_slice().to_vec();
        let v0 = &am.layout.vcpus[0];
        m[v0.status.index()] = 2;
        m[v0.pcpu.index()] = 2;
        m[am.layout.pcpus[1].index()] = 1;
        m[am.layout.vms[0].lock_holder.index()] = 2;
        let once = rots[0].apply(&m);
        assert_ne!(once, m, "the half-turn must move the asymmetric state");
        let twice = rots[0].apply(&once);
        assert_eq!(twice, m, "applying the 2-cycle twice is the identity");
    }

    #[test]
    fn id_valued_places_are_remapped() {
        let config = identical_vms(2, 2);
        let (am, rots) = rotations_of(&config);
        let l = &am.layout;
        let mut m = am.model.initial_marking().as_slice().to_vec();
        // VCPU 0 on PCPU 0; VM 0's lock held by VCPU 1.
        m[l.pcpus[0].index()] = 1;
        m[l.vcpus[0].pcpu.index()] = 1;
        m[l.vms[0].lock_holder.index()] = 2;
        let r = rots[0].apply(&m);
        // PCPU 0 now holds the rotated VCPU (0 -> 2), id + 1 = 3.
        assert_eq!(r[l.pcpus[0].index()], 3);
        // The rotated VCPU slot carries the unchanged PCPU id + 1.
        assert_eq!(r[l.vcpus[2].pcpu.index()], 1);
        assert_eq!(r[l.vcpus[0].pcpu.index()], 0);
        // VM 1's lock is now held by the rotated holder (1 -> 3), id+1 = 4.
        assert_eq!(r[l.vms[1].lock_holder.index()], 4);
        assert_eq!(r[l.vms[0].lock_holder.index()], 0);
    }

    #[test]
    fn hypervisor_places_are_fixed_points() {
        let config = identical_vms(2, 1);
        let (am, rots) = rotations_of(&config);
        let l = &am.layout;
        let mut m = am.model.initial_marking().as_slice().to_vec();
        m[l.clock.index()] = 42;
        m[l.halt.index()] = 1;
        let r = rots[0].apply(&m);
        assert_eq!(r[l.clock.index()], 42);
        assert_eq!(r[l.halt.index()], 1);
    }

    #[test]
    fn dynamic_models_have_no_rotations() {
        let config = identical_vms(2, 1);
        let am =
            crate::san_model::build::build_model(&config, PolicyKind::RoundRobin.create(), true)
                .unwrap();
        let rots = vm_rotations(&config, &am.layout, am.model.initial_marking().len());
        assert!(rots.is_empty(), "admission places break the symmetry");
    }

    #[test]
    fn all_rotations_are_bijections() {
        let config = identical_vms(3, 2);
        let (am, rots) = rotations_of(&config);
        let n = am.model.initial_marking().len();
        for rot in &rots {
            let mut seen = vec![false; n];
            for &j in &rot.perm {
                assert!(!seen[j], "source index {j} used twice");
                seen[j] = true;
            }
        }
        // Workload distribution differences also disable the group.
        let config = SystemConfig::builder()
            .pcpus(2)
            .vm_spec(VmSpec::new(1))
            .vm_spec(VmSpec {
                vcpus: 1,
                workload: WorkloadSpec {
                    sync_probability: 0.5,
                    ..WorkloadSpec::default()
                },
                weight: 1,
            })
            .build()
            .unwrap();
        let (_, rots) = rotations_of(&config);
        assert!(rots.is_empty(), "different workloads break the symmetry");
    }
}
