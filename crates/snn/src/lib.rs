//! Spiking-neural-network substrate for the SpikeStream reproduction.
//!
//! This crate provides everything above the hardware model and below the
//! kernels:
//!
//! * dense activation / weight tensors in the HWC layout used by the
//!   kernels ([`tensor`]),
//! * the neuron models — leaky integrate-and-fire and Izhikevich — behind
//!   the model-generic [`NeuronState`] ([`neuron`]),
//! * layer descriptors and the S-VGG11 network evaluated in the paper
//!   ([`layer`], [`model`]),
//! * the CSR-derived compressed ifmap format and the AER format it is
//!   compared against ([`compress`]),
//! * spike encodings for image inputs, including the per-timestep
//!   rate/direct temporal encoder ([`encoding`]),
//! * a synthetic workload generator that reproduces the per-layer firing
//!   statistics of the paper's CIFAR-10 evaluation, plus the
//!   [`WorkloadMode`] switch between that single-shot path and the real
//!   T-timestep temporal pipeline ([`workload`]), and
//! * a functional reference inference engine used as ground truth for the
//!   kernel implementations ([`reference`](mod@reference)).

pub mod compress;
pub mod encoding;
pub mod layer;
pub mod model;
pub mod neuron;
pub mod reference;
pub mod tensor;
pub mod workload;

pub use compress::{AerEvent, AerFrame, CompressedFcInput, CompressedIfmap};
pub use encoding::{TemporalEncoder, TemporalEncoding};
pub use layer::{ConvSpec, Layer, LayerKind, LinearSpec, PoolSpec};
pub use model::{Network, NetworkBuilder};
pub use neuron::{IzhiParams, LifParams, NeuronModel, NeuronState};
pub use reference::ReferenceEngine;
pub use tensor::{ActiveBits, ActiveChannels, SpikeMap, Tensor3, TensorShape};
pub use workload::{
    FiringProfile, SpikeWorkload, TemporalSparsityModel, WorkloadGenerator, WorkloadMode,
};
