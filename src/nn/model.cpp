#include "nn/model.hpp"

#include <algorithm>

#include "nn/activations.hpp"
#include "util/assert.hpp"

namespace drift::nn {

Sequential& Sequential::add(LayerPtr layer) {
  DRIFT_CHECK(layer != nullptr, "null layer");
  layers_.push_back(std::move(layer));
  return *this;
}

TensorF Sequential::forward(const TensorF& input, QuantEngine& engine) {
  TensorF x = input;
  for (auto& layer : layers_) {
    x = layer->forward(x, engine);
  }
  return x;
}

ResidualBlock::ResidualBlock(std::string name, std::int64_t in_channels,
                             std::int64_t out_channels, std::int64_t stride,
                             Rng& rng)
    : name_(std::move(name)),
      conv1_(name_ + ".conv1", in_channels, out_channels, 3, stride, 1, rng),
      bn1_(name_ + ".bn1", out_channels), relu1_(name_ + ".relu1"),
      conv2_(name_ + ".conv2", out_channels, out_channels, 3, 1, 1, rng),
      bn2_(name_ + ".bn2", out_channels), relu2_(name_ + ".relu2") {
  if (stride != 1 || in_channels != out_channels) {
    projection_ = std::make_unique<Conv2d>(name_ + ".proj", in_channels,
                                           out_channels, 1, stride, 0, rng);
  }
}

TensorF ResidualBlock::forward(const TensorF& input, QuantEngine& engine) {
  // The ReLU stages run as layers of their own, so the forward writes
  // one obs layer record per stage, relu1 and relu2 included (pinned by
  // Model.ResidualBlockPreservesShapeWithProjection).  ReLU's kernel is
  // the max(v, 0) an inline loop would apply, so this is bitwise-neutral.
  TensorF main = conv1_.forward(input, engine);
  main = bn1_.forward(main, engine);
  main = relu1_.forward(main, engine);
  main = conv2_.forward(main, engine);
  main = bn2_.forward(main, engine);

  const TensorF skip =
      projection_ ? projection_->forward(input, engine) : input;
  DRIFT_CHECK(skip.shape() == main.shape(), "residual shape mismatch");
  auto md = main.data();
  auto sd = skip.data();
  for (std::size_t i = 0; i < md.size(); ++i) {
    md[i] += sd[i];
  }
  return relu2_.forward(main, engine);
}

TransformerBlock::TransformerBlock(std::string name, std::int64_t dim,
                                   std::int64_t heads, std::int64_t ffn_dim,
                                   Rng& rng)
    : name_(std::move(name)), ln1_(name_ + ".ln1", dim),
      attn_(name_ + ".attn", dim, heads, rng), ln2_(name_ + ".ln2", dim),
      ffn1_(name_ + ".ffn1", dim, ffn_dim, rng), gelu_(name_ + ".gelu"),
      ffn2_(name_ + ".ffn2", ffn_dim, dim, rng) {}

TensorF TransformerBlock::forward(const TensorF& input, QuantEngine& engine) {
  TensorF x = input;
  // Attention sub-block.
  {
    TensorF h = ln1_.forward(x, engine);
    h = attn_.forward(h, engine);
    auto xd = x.data();
    auto hd = h.data();
    for (std::size_t i = 0; i < xd.size(); ++i) xd[i] += hd[i];
  }
  // FFN sub-block.
  {
    TensorF h = ln2_.forward(x, engine);
    h = ffn1_.forward(h, engine);
    // gelu_value through the GELU layer, so the stage writes its own
    // obs layer record (pinned by Model.TransformerBlockPreservesShape).
    h = gelu_.forward(h, engine);
    h = ffn2_.forward(h, engine);
    auto xd = x.data();
    auto hd = h.data();
    for (std::size_t i = 0; i < xd.size(); ++i) xd[i] += hd[i];
  }
  return x;
}

}  // namespace drift::nn
